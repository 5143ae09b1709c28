// Cross-engine equivalence tests: the determinism contract of
// internal/sim, asserted at the public API for every algorithm. For a
// fixed seed, the lockstep reference engine and the vector engine — at
// every worker count, as one-lane passes and as one merged multi-lane
// pass — must produce identical Reports: the same output, the same
// round count, and the same per-node awake counters. The step-form
// algorithms are additionally checked bit-identical against their
// goroutine-form originals.
package awakemis_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"awakemis"
	"awakemis/internal/core"
	"awakemis/internal/graph"
	"awakemis/internal/ldtmis"
	"awakemis/internal/luby"
	"awakemis/internal/naive"
	rng2 "awakemis/internal/rng"
	"awakemis/internal/sim"
	"awakemis/internal/simtest"
	"awakemis/internal/vtcolor"
	"awakemis/internal/vtmatch"
	"awakemis/internal/vtmis"
)

// checkAcrossEngines runs task on gs at each seed on the lockstep
// reference, then on the vector engine at every worker count — each
// seed as a one-lane pass, and all seeds as the lanes of one merged
// pass — demanding identical outputs and metrics.
func checkAcrossEngines(t *testing.T, task string, gs awakemis.GraphSpec, seeds []int64) {
	t.Helper()
	ctx := context.Background()
	spec := awakemis.Spec{Task: task, Graph: gs, Options: awakemis.Options{Strict: true}}
	want := make([]*awakemis.Report, len(seeds))
	trials := make([]awakemis.Trial, len(seeds))
	for i, seed := range seeds {
		sp := spec
		sp.Options.Seed = seed
		rep, err := awakemis.RunLockstep(sp)
		if err != nil {
			t.Fatalf("lockstep seed %d: %v", seed, err)
		}
		want[i], trials[i] = rep, awakemis.Trial{Seed: seed}
	}
	same := func(label string, i int, got *awakemis.Report) {
		t.Helper()
		if !reflect.DeepEqual(got.Output, want[i].Output) {
			t.Fatalf("%s seed %d: output diverges from lockstep", label, seeds[i])
		}
		if !reflect.DeepEqual(got.Metrics, want[i].Metrics) {
			t.Fatalf("%s seed %d: metrics diverge from lockstep:\n%+v\nvs\n%+v", label, seeds[i], got.Metrics, want[i].Metrics)
		}
	}
	for _, workers := range simtest.Workers {
		for i, seed := range seeds {
			sp := spec
			sp.Options.Seed = seed
			rep, err := awakemis.Run(ctx, sp, awakemis.WithWorkers(workers))
			if err != nil {
				t.Fatalf("workers=%d seed %d: %v", workers, seed, err)
			}
			same(fmt.Sprintf("workers=%d lanes=1", workers), i, rep)
		}
		out := make([]*awakemis.Report, len(seeds))
		if _, err := awakemis.Run(ctx, spec, awakemis.WithWorkers(workers), awakemis.WithVectorizedTrials(trials, out)); err != nil {
			t.Fatalf("workers=%d lanes=%d: %v", workers, len(seeds), err)
		}
		for i, rep := range out {
			same(fmt.Sprintf("workers=%d lanes=%d", workers, len(seeds)), i, rep)
		}
	}
}

// equivGraphs is the graph axis of the cross-engine grid. Explicit
// graph seeds let the seeds share one graph in a merged pass.
var equivGraphs = map[string]awakemis.GraphSpec{
	"gnp":   {Family: "gnp", N: 90, P: 0.05, Seed: 5},
	"cycle": {Family: "cycle", N: 41, Seed: 1},
	"grid":  {Family: "grid", N: 56, Seed: 1},
}

func TestAllAlgorithmsIdenticalAcrossEngines(t *testing.T) {
	for gname, gs := range equivGraphs {
		for _, algo := range awakemis.Algorithms() {
			t.Run(gname+"/"+string(algo), func(t *testing.T) {
				checkAcrossEngines(t, string(algo), gs, []int64{1, 17, 33})
			})
		}
	}
}

func TestColoringMatchingIdenticalAcrossEngines(t *testing.T) {
	gs := awakemis.GraphSpec{Family: "gnp", N: 80, P: 0.06, Seed: 3}
	for _, task := range []string{awakemis.TaskColoring, awakemis.TaskMatching} {
		checkAcrossEngines(t, task, gs, []int64{5, 6, 7})
	}
}

// TestStepPortsMatchGoroutineOriginals runs each algorithm's
// goroutine-form original on the lockstep engine and its step-form
// port on the vector engine grid, demanding identical outputs and
// metrics — the port-faithfulness check. The awake-mis (core) and
// ldt-mis ports exercise the resumable ldt.SProc tree machinery.
func TestStepPortsMatchGoroutineOriginals(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := graph.GNP(70, 0.07, rng)
	n := g.N()
	ids := make([]int, n)
	for v, p := range rng.Perm(n) {
		ids[v] = p + 1
	}
	edgeIDs := vtmatch.EdgeIDs{}
	for i, e := range g.Edges() {
		edgeIDs[e] = i + 1
	}

	// awake-mis / ldt-mis inputs: the schedule every node derives
	// locally, and distinct big-space IDs with the component bound.
	baseCfg := sim.Config{Seed: 31, Strict: true}
	params := core.Params{}.WithDefaults(n)
	sched := core.NewSchedule(n, params, sim.DefaultBandwidth(n))
	bigCfg := baseCfg
	bigCfg.N = 1 << 16
	bigCfg.Bandwidth = sim.DefaultBandwidth(1 << 40)
	bigIDs := rng2.IDs40(n, 42)
	np := 1
	for _, c := range g.Components() {
		if len(c) > np {
			np = len(c)
		}
	}

	// Each case builds fresh programs in both forms over one result
	// container; only one form runs per call, so the reader returns its
	// output.
	cases := map[string]simtest.Case{
		"naive": func() (sim.Program, sim.StepProgram, func() any) {
			r := &naive.Result{InMIS: make([]bool, n)}
			return naive.Program(r, ids, n), naive.StepProgram(r, ids, n), func() any { return r }
		},
		"luby": func() (sim.Program, sim.StepProgram, func() any) {
			r := &luby.Result{InMIS: make([]bool, n)}
			return luby.Program(r), luby.StepProgram(r), func() any { return r }
		},
		"vtmis": func() (sim.Program, sim.StepProgram, func() any) {
			r := &vtmis.Result{InMIS: make([]bool, n)}
			return vtmis.Program(r, ids, n), vtmis.StepProgram(r, ids, n), func() any { return r }
		},
		"vtcolor": func() (sim.Program, sim.StepProgram, func() any) {
			r := &vtcolor.Result{Color: make([]int, n)}
			return vtcolor.Program(r, ids, n), vtcolor.StepProgram(r, ids, n), func() any { return r }
		},
		"vtmatch": func() (sim.Program, sim.StepProgram, func() any) {
			r := &vtmatch.Result{MatchedWith: make([]int, n)}
			for i := range r.MatchedWith {
				r.MatchedWith[i] = -1
			}
			return vtmatch.Program(r, g, edgeIDs), vtmatch.StepProgram(r, g, edgeIDs), func() any { return r }
		},
		"awake-mis": func() (sim.Program, sim.StepProgram, func() any) {
			r := &core.Result{InMIS: make([]bool, n), Batch: make([]int, n)}
			return core.Program(r, sched, params, n), core.StepProgram(r, sched, params, n), func() any { return r }
		},
		"ldt-mis": func() (sim.Program, sim.StepProgram, func() any) {
			r := &ldtmis.Result{InMIS: make([]bool, n), NewID: make([]int, n)}
			return ldtmis.Program(r, bigIDs, np, ldtmis.VariantAwake),
				ldtmis.StepProgram(r, bigIDs, np, ldtmis.VariantAwake), func() any { return r }
		},
	}
	// ldt-mis ships 40-bit IDs in its control messages; its CONGEST
	// budget scales with log I like the task shim's.
	cfgs := map[string]sim.Config{"ldt-mis": bigCfg}

	for algo, mk := range cases {
		t.Run(algo, func(t *testing.T) {
			cfg, ok := cfgs[algo]
			if !ok {
				cfg = baseCfg
			}
			simtest.CheckForms(t, g, mk, cfg)
		})
	}
}
