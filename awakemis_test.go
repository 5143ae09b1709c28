package awakemis

import (
	"context"
	"strings"
	"testing"
	"testing/quick"
)

// runOn runs task on g, a graph in hand, through Run.
func runOn(g *Graph, task string, opt Options) (*Report, error) {
	return Run(context.Background(), Spec{Task: task, Options: opt}, WithGraph(g))
}

func TestRunAllAlgorithmsProduceValidMIS(t *testing.T) {
	graphs := map[string]*Graph{
		"gnp":   GNP(80, 0.05, 1),
		"cycle": Cycle(30),
		"tree":  RandomTree(40, 2),
		"geo":   RandomGeometric(60, 0.2, 3),
	}
	for gname, g := range graphs {
		for _, task := range Tasks() {
			if task.Kind != "mis" {
				continue
			}
			t.Run(gname+"/"+task.Name, func(t *testing.T) {
				res, err := runOn(g, task.Name, Options{Seed: 7, Strict: true})
				if err != nil {
					t.Fatal(err)
				}
				if err := Verify(g, res.Output.InMIS); err != nil {
					t.Fatal(err)
				}
				if res.Metrics.MaxAwake < 1 || res.Metrics.Rounds < 1 {
					t.Errorf("suspicious metrics: %+v", res.Metrics)
				}
				if len(res.Metrics.AwakePerNode) != g.N() {
					t.Error("per-node metrics wrong length")
				}
			})
		}
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	if _, err := runOn(Cycle(4), "bogus", Options{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAwakeMISBeatsLubyGrowth(t *testing.T) {
	// The headline claim at the API level: as n grows 16x, Luby's awake
	// complexity grows log-like while Awake-MIS stays essentially flat.
	small, large := 64, 1024
	awake := func(algo Algorithm, n int) int64 {
		g := GNP(n, 4/float64(n), int64(n))
		res, err := runOn(g, string(algo), Options{Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.MaxAwake
	}
	lubyGrowth := float64(awake(Luby, large)) / float64(awake(Luby, small))
	oursGrowth := float64(awake(AwakeMIS, large)) / float64(awake(AwakeMIS, small))
	if oursGrowth >= lubyGrowth {
		t.Errorf("awake-mis growth %.2fx not below luby growth %.2fx", oursGrowth, lubyGrowth)
	}
	if oursGrowth > 1.4 {
		t.Errorf("awake-mis growth %.2fx not log log-flat", oursGrowth)
	}
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(3, [][2]int{{0, 0}}); err == nil {
		t.Error("self-loop accepted")
	}
	g, err := NewGraph(3, [][2]int{{0, 1}, {1, 2}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Errorf("M = %d, want 2", g.M())
	}
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Neighbors(1) = %v", got)
	}
}

func TestGraphAccessors(t *testing.T) {
	g := Grid(3, 3)
	if g.N() != 9 || g.M() != 12 || g.MaxDegree() != 4 {
		t.Errorf("grid stats wrong: %v", g)
	}
	if !g.IsConnected() {
		t.Error("grid should be connected")
	}
	if len(g.Components()) != 1 {
		t.Error("grid has one component")
	}
	if len(g.Edges()) != 12 {
		t.Error("edge list wrong")
	}
	if !strings.Contains(g.String(), "n=9") {
		t.Errorf("String() = %s", g)
	}
	if Star(5).Degree(0) != 4 {
		t.Error("star center degree wrong")
	}
}

func TestGeneratorsProduceExpectedSizes(t *testing.T) {
	tests := []struct {
		g    *Graph
		n, m int
	}{
		{Cycle(5), 5, 5},
		{Path(5), 5, 4},
		{Complete(5), 5, 10},
		{Star(5), 5, 4},
		{RandomTree(17, 1), 17, 16},
	}
	for _, tt := range tests {
		if tt.g.N() != tt.n || tt.g.M() != tt.m {
			t.Errorf("%v: want n=%d m=%d", tt.g, tt.n, tt.m)
		}
	}
	if g := PreferentialAttachment(50, 2, 4); g.N() != 50 || !g.IsConnected() {
		t.Error("preferential attachment wrong")
	}
	if g := RandomRegular(30, 3, 5); g.MaxDegree() > 3 {
		t.Error("regular graph exceeds degree")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := GNP(50, 0.08, 9)
	a, err := runOn(g, string(AwakeMIS), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOn(g, string(AwakeMIS), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Output.InMIS {
		if a.Output.InMIS[v] != b.Output.InMIS[v] {
			t.Fatalf("replay diverged at %d", v)
		}
	}
	if a.Metrics.Rounds != b.Metrics.Rounds || a.Metrics.BitsSent != b.Metrics.BitsSent {
		t.Error("metrics diverged")
	}
}

func TestQuickFacadeAlwaysValid(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%30) + 2
		g := GNP(n, 0.2, seed)
		res, err := runOn(g, string(AwakeMIS), Options{Seed: seed})
		if err != nil {
			return false
		}
		return Verify(g, res.Output.InMIS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
