package ldtmis_test

import (
	"math/rand"
	"testing"

	"awakemis/internal/graph"
	"awakemis/internal/ldtmis"
	"awakemis/internal/rng"
	"awakemis/internal/sim"
	"awakemis/internal/simtest"
)

// TestStepFormMatchesGoroutineForm is the port-faithfulness check for
// the LDT-MIS pipeline: the step machine on the vector engine must
// reproduce the outputs AND metrics (same wake rounds, same messages)
// frozen from the goroutine original on the lockstep engine, for both
// LDT constructions, on graphs with several components, at several
// worker and lane counts.
func TestStepFormMatchesGoroutineForm(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"cycle": graph.Cycle(24),
		"gnp":   graph.GNP(40, 0.08, rand.New(rand.NewSource(9))), // disconnected w.h.p.
		"path":  graph.Path(17),
	}
	for gname, g := range graphs {
		np := 0
		for _, c := range g.Components() {
			if len(c) > np {
				np = len(c)
			}
		}
		ids := rng.IDs40(g.N(), int64(len(gname)))
		for _, variant := range []ldtmis.Variant{ldtmis.VariantAwake, ldtmis.VariantRound} {
			t.Run(gname+"/"+variant.String(), func(t *testing.T) {
				cfg := sim.Config{Seed: 77, N: 1 << 16, Strict: true}
				cfg.Bandwidth = sim.DefaultBandwidth(1 << 40)
				simtest.CheckForms(t, gname+"/"+variant.String(), g, func() (sim.StepProgram, func() any) {
					res := &ldtmis.Result{InMIS: make([]bool, g.N()), NewID: make([]int, g.N())}
					return ldtmis.StepProgram(res, ids, np, variant), func() any { return res }
				}, cfg)
			})
		}
	}
}
