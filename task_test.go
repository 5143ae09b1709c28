package awakemis_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"awakemis"
)

// runOn runs task on g, a graph in hand, through Run.
func runOn(g *awakemis.Graph, task string, opt awakemis.Options) (*awakemis.Report, error) {
	return awakemis.Run(context.Background(), awakemis.Spec{Task: task, Options: opt}, awakemis.WithGraph(g))
}

func TestTasksListsAllEightProblems(t *testing.T) {
	want := []string{
		"awake-mis", "awake-mis-round", "luby", "naive-greedy",
		"vt-mis", "ldt-mis", "coloring", "matching",
	}
	if got := awakemis.TaskNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("TaskNames() = %v, want %v", got, want)
	}
	for _, task := range awakemis.Tasks() {
		if task.Summary == "" || task.IDScheme == "" {
			t.Errorf("task %s metadata incomplete: %+v", task.Name, task)
		}
		if _, ok := awakemis.TaskByName(task.Name); !ok {
			t.Errorf("TaskByName(%s) missing", task.Name)
		}
	}
	if _, ok := awakemis.TaskByName("bogus"); ok {
		t.Error("TaskByName accepted an unknown name")
	}
}

func TestRunTaskEveryTaskProducesVerifiedReport(t *testing.T) {
	g := awakemis.GNP(70, 0.06, 11)
	for _, task := range awakemis.TaskNames() {
		t.Run(task, func(t *testing.T) {
			rep, err := runOn(g, task, awakemis.Options{Seed: 4, Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Verified || rep.Task != task || rep.Engine != "stepped" {
				t.Errorf("envelope wrong: %+v", rep)
			}
			if rep.Graph.N != g.N() || rep.Graph.M != g.M() {
				t.Errorf("graph stats wrong: %+v", rep.Graph)
			}
			if rep.Metrics.Rounds < 1 || rep.Metrics.MaxAwake < 1 {
				t.Errorf("suspicious metrics: %+v", rep.Metrics)
			}
			// Exactly one output field per task kind.
			outputs := 0
			if rep.Output.InMIS != nil {
				outputs++
			}
			if rep.Output.Color != nil {
				outputs++
			}
			if rep.Output.MatchedWith != nil {
				outputs++
			}
			if outputs != 1 {
				t.Errorf("%d output fields set, want 1: %+v", outputs, rep.Output)
			}
		})
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	g := awakemis.Cycle(20)
	rep, err := runOn(g, "luby", awakemis.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"task", "engine", "seed", "graph", "metrics", "output", "verified", "wall_ms"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("report JSON missing %q:\n%s", key, data)
		}
	}
	if decoded["task"] != "luby" || decoded["verified"] != true {
		t.Errorf("report JSON content wrong:\n%s", data)
	}
	// Per-node awake counters stay out of the wire form.
	if strings.Contains(string(data), "AwakePerNode") {
		t.Error("AwakePerNode leaked into JSON")
	}
}

func TestRunTaskUnknownNameListsRegistry(t *testing.T) {
	_, err := runOn(awakemis.Cycle(4), "bogus", awakemis.Options{})
	if err == nil || !strings.Contains(err.Error(), "awake-mis") {
		t.Fatalf("want an error naming the registry, got %v", err)
	}
}

func TestRunTaskContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// naive-greedy on a big cycle would run for thousands of rounds; a
	// dead context must stop it before the first one.
	spec := awakemis.Spec{Task: "naive-greedy", Options: awakemis.Options{Seed: 1}}
	_, err := awakemis.Run(ctx, spec, awakemis.WithGraph(awakemis.Cycle(2000)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDeriveSeedStableAndSeparated(t *testing.T) {
	a := awakemis.DeriveSeed(7, "spec", 0)
	if a != awakemis.DeriveSeed(7, "spec", 0) {
		t.Fatal("DeriveSeed not deterministic")
	}
	if a == awakemis.DeriveSeed(7, "spec", 1) || a == awakemis.DeriveSeed(7, "graph", 0) || a == awakemis.DeriveSeed(8, "spec", 0) {
		t.Fatal("DeriveSeed streams collide")
	}
}
