package core_test

import (
	"math/rand"
	"testing"

	"awakemis/internal/core"
	"awakemis/internal/graph"
	"awakemis/internal/ldtmis"
	"awakemis/internal/sim"
	"awakemis/internal/simtest"
)

// TestStepFormMatchesGoroutineForm is the port-faithfulness check for
// Awake-MIS: the goroutine original on the lockstep engine and the
// native step machine on the vector engine must be bit-identical in
// outputs AND metrics, for both LDT variants, at several worker and
// lane counts.
func TestStepFormMatchesGoroutineForm(t *testing.T) {
	g := graph.GNP(60, 0.06, rand.New(rand.NewSource(3)))
	for _, variant := range []ldtmis.Variant{ldtmis.VariantAwake, ldtmis.VariantRound} {
		t.Run(variant.String(), func(t *testing.T) {
			n := g.N()
			params := core.Params{Variant: variant}.WithDefaults(n)
			cfg := sim.Config{Seed: 11, Strict: true, Bandwidth: sim.DefaultBandwidth(n)}
			sched := core.NewSchedule(n, params, cfg.Bandwidth)
			simtest.CheckForms(t, g, func() (sim.Program, sim.StepProgram, func() any) {
				res := &core.Result{InMIS: make([]bool, n), Batch: make([]int, n)}
				return core.Program(res, sched, params, n), core.StepProgram(res, sched, params, n),
					func() any { return res }
			}, cfg)
		})
	}
}
