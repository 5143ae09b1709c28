// Cross-engine equivalence tests: the determinism contract of
// internal/sim, asserted at the public API for every algorithm. For a
// fixed seed, the vector engine — at every worker count, as one-lane
// passes and as one merged multi-lane pass — must reproduce the Report
// digests frozen from the lockstep reference engine before its
// removal. The step-form algorithms are additionally held, Metrics
// (with per-node awake counters) and outputs, to the digests their
// goroutine-form originals froze.
package awakemis_test

import (
	"context"
	"fmt"
	"math/rand"
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

// equivCell is one task on one graph of the cross-engine grid.
type equivCell struct {
	name  string // graph axis label
	task  string
	gs    awakemis.GraphSpec
	seeds []int64
}

// spec is the cell's spec at one seed.
func (c equivCell) spec(seed int64) awakemis.Spec {
	return awakemis.Spec{Task: c.task, Graph: c.gs, Options: awakemis.Options{Strict: true, Seed: seed}}
}

// key names the cell's run at seed in runDigestsFile.
func (c equivCell) key(seed int64) string {
	return fmt.Sprintf("equiv/%s/%s/seed=%d", c.name, c.task, seed)
}

// equivGraphs is the graph axis of the cross-engine grid. Explicit
// graph seeds let the seeds share one graph in a merged pass.
var equivGraphs = map[string]awakemis.GraphSpec{
	"gnp":   {Family: "gnp", N: 90, P: 0.05, Seed: 5},
	"cycle": {Family: "cycle", N: 41, Seed: 1},
	"grid":  {Family: "grid", N: 56, Seed: 1},
}

// algorithmCells is every MIS algorithm on equivGraphs at seeds 1/17/33.
func algorithmCells() []equivCell {
	var cells []equivCell
	for gname, gs := range equivGraphs {
		for _, task := range awakemis.Tasks() {
			if task.Kind == "mis" {
				cells = append(cells, equivCell{gname, task.Name, gs, []int64{1, 17, 33}})
			}
		}
	}
	return cells
}

// coloringMatchingCells is coloring and matching on one G(n, p) at
// seeds 5/6/7.
func coloringMatchingCells() []equivCell {
	gs := awakemis.GraphSpec{Family: "gnp", N: 80, P: 0.06, Seed: 3}
	return []equivCell{
		{"gnp-80", awakemis.TaskColoring, gs, []int64{5, 6, 7}},
		{"gnp-80", awakemis.TaskMatching, gs, []int64{5, 6, 7}},
	}
}

// equivGrid is the whole cross-engine grid.
func equivGrid() []equivCell { return append(algorithmCells(), coloringMatchingCells()...) }

// checkAcrossEngines runs the cell on the vector engine at every
// worker count — each seed as a one-lane pass, and all seeds as the
// lanes of one merged pass — and holds every Report to its digest
// frozen in runDigestsFile.
func checkAcrossEngines(t *testing.T, c equivCell) {
	t.Helper()
	ctx := context.Background()
	seeds := c.seeds
	frozen := frozenDigests(t)
	trials := make([]awakemis.Trial, len(seeds))
	for i, seed := range seeds {
		trials[i] = awakemis.Trial{Seed: seed}
	}
	same := func(label string, i int, got *awakemis.Report) {
		t.Helper()
		k := c.key(seeds[i])
		if d := digestReport(t, got); d != frozen[k] {
			t.Fatalf("%s %s: report digest %s, frozen %q", label, k, d, frozen[k])
		}
	}
	for _, workers := range simtest.Workers {
		for i, seed := range seeds {
			rep, err := awakemis.Run(ctx, c.spec(seed), awakemis.WithWorkers(workers))
			if err != nil {
				t.Fatalf("workers=%d seed %d: %v", workers, seed, err)
			}
			same(fmt.Sprintf("workers=%d lanes=1", workers), i, rep)
		}
		out := make([]*awakemis.Report, len(seeds))
		if _, err := awakemis.Run(ctx, c.spec(0), awakemis.WithWorkers(workers), awakemis.WithVectorizedTrials(trials, out)); err != nil {
			t.Fatalf("workers=%d lanes=%d: %v", workers, len(seeds), err)
		}
		for i, rep := range out {
			same(fmt.Sprintf("workers=%d lanes=%d", workers, len(seeds)), i, rep)
		}
	}
}

func TestAllAlgorithmsIdenticalAcrossEngines(t *testing.T) {
	for _, c := range algorithmCells() {
		t.Run(c.name+"/"+c.task, func(t *testing.T) { checkAcrossEngines(t, c) })
	}
}

func TestColoringMatchingIdenticalAcrossEngines(t *testing.T) {
	for _, c := range coloringMatchingCells() {
		checkAcrossEngines(t, c)
	}
}

// TestStepPortsMatchGoroutineOriginals holds each algorithm's step
// program on the vector engine grid to the output and metrics digests
// frozen from its goroutine-form original on the lockstep engine — the
// port-faithfulness check. The awake-mis (core) and ldt-mis ports
// exercise the resumable ldt.SProc tree machinery.
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

	// Each case builds a fresh program over a fresh result container.
	cases := map[string]simtest.Case{
		"naive": func() (sim.StepProgram, func() any) {
			r := &naive.Result{InMIS: make([]bool, n)}
			return naive.StepProgram(r, ids, n), func() any { return r }
		},
		"luby": func() (sim.StepProgram, func() any) {
			r := &luby.Result{InMIS: make([]bool, n)}
			return luby.StepProgram(r), func() any { return r }
		},
		"vtmis": func() (sim.StepProgram, func() any) {
			r := &vtmis.Result{InMIS: make([]bool, n)}
			return vtmis.StepProgram(r, ids, n), func() any { return r }
		},
		"vtcolor": func() (sim.StepProgram, func() any) {
			r := &vtcolor.Result{Color: make([]int, n)}
			return vtcolor.StepProgram(r, ids, n), func() any { return r }
		},
		"vtmatch": func() (sim.StepProgram, func() any) {
			r := &vtmatch.Result{MatchedWith: make([]int, n)}
			for i := range r.MatchedWith {
				r.MatchedWith[i] = -1
			}
			return vtmatch.StepProgram(r, g, edgeIDs), func() any { return r }
		},
		"awake-mis": func() (sim.StepProgram, func() any) {
			r := &core.Result{InMIS: make([]bool, n), Batch: make([]int, n)}
			return core.StepProgram(r, sched, params, n), func() any { return r }
		},
		"ldt-mis": func() (sim.StepProgram, func() any) {
			r := &ldtmis.Result{InMIS: make([]bool, n), NewID: make([]int, n)}
			return ldtmis.StepProgram(r, bigIDs, np, ldtmis.VariantAwake), func() any { return r }
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
			simtest.CheckForms(t, algo, g, mk, cfg)
		})
	}
}
