package awakemis

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"awakemis/internal/luby"
	"awakemis/internal/sim"
)

// TestLanePipelinePanicBecomesError: a panic in a lane's pipeline
// outside the node programs — in its task's prepare or verify — fails
// the run with an error naming the spec, for a merged three-trial pass
// and for a one-lane run on a graph in hand alike, and leaves no
// goroutine behind. The test task joins the registry only for this
// test, which therefore runs sequentially: other tests iterate Tasks().
func TestLanePipelinePanicBecomesError(t *testing.T) {
	const task, prepSeed, verifySeed = "test-panicky", 7, 8
	registerTask(Task{
		Name: task,
		Kind: "mis",
		rank: 99,
		prepare: func(g *Graph, opt Options, cfg *sim.Config) (sim.StepProgram, func() Output, error) {
			if opt.Seed == prepSeed {
				panic("prepare blew up")
			}
			sp, res := luby.Prepare(g.internal())
			if opt.Seed == verifySeed {
				// An empty Output is verify's cue to panic.
				return sp, func() Output { return Output{} }, nil
			}
			return sp, func() Output { return Output{InMIS: res.InMIS} }, nil
		},
		verify: func(g *Graph, out Output) error {
			if out.InMIS == nil {
				panic("verify blew up")
			}
			return verifyMIS(g, out)
		},
	})
	defer delete(taskRegistry, task)

	baseline := runtime.NumGoroutine()
	spec := Spec{
		Name:    "panicky",
		Task:    task,
		Graph:   GraphSpec{Family: "cycle", N: 64, Seed: 1},
		Options: Options{Workers: 4},
	}
	for _, bad := range []int64{prepSeed, verifySeed} {
		trials := []Trial{{Seed: 1, Name: "trial-0"}, {Seed: bad, Name: "trial-1"}, {Seed: 3, Name: "trial-2"}}
		_, err := Run(context.Background(), spec, WithVectorizedTrials(trials, make([]*Report, len(trials))))
		if err == nil || !strings.Contains(err.Error(), "trial-1") || !strings.Contains(err.Error(), "blew up") {
			t.Errorf("seed %d: Run err = %v, want a panic error naming trial-1", bad, err)
		}
		_, err = runOn(Cycle(64), task, Options{Seed: bad, Workers: 4})
		if err == nil || !strings.Contains(err.Error(), task) || !strings.Contains(err.Error(), "blew up") {
			t.Errorf("seed %d: WithGraph run err = %v, want a panic error naming %s", bad, err, task)
		}
	}
	// The healthy seeds still run: the test task itself is sound.
	if _, err := runOn(Cycle(64), task, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}

	// The worker pool shuts down asynchronously; give its goroutines a
	// moment to exit before declaring a leak.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: baseline %d, now %d after failed runs", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
