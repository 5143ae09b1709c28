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
// Awake-MIS: the step machine on the vector engine must reproduce, in
// outputs AND metrics, the digests frozen from the goroutine original
// on the lockstep engine, for both LDT variants, at several worker and
// lane counts.
func TestStepFormMatchesGoroutineForm(t *testing.T) {
	g := graph.GNP(60, 0.06, rand.New(rand.NewSource(3)))
	for _, variant := range []ldtmis.Variant{ldtmis.VariantAwake, ldtmis.VariantRound} {
		t.Run(variant.String(), func(t *testing.T) {
			n := g.N()
			params := core.Params{Variant: variant}.WithDefaults(n)
			cfg := sim.Config{Seed: 11, Strict: true, Bandwidth: sim.DefaultBandwidth(n)}
			sched := core.NewSchedule(n, params, cfg.Bandwidth)
			simtest.CheckForms(t, "awake-mis/"+variant.String(), g, func() (sim.StepProgram, func() any) {
				res := &core.Result{InMIS: make([]bool, n), Batch: make([]int, n)}
				return core.StepProgram(res, sched, params, n), func() any { return res }
			}, cfg)
		})
	}
}
