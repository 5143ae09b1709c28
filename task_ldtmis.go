package awakemis

import (
	"awakemis/internal/ldtmis"
	"awakemis/internal/sim"
)

// Registration shim for internal/ldtmis: Algorithm LDT-MIS (Lemma 11).
func init() {
	registerTask(Task{
		Name:     string(LDTMIS),
		Kind:     "mis",
		Summary:  "LDT-MIS: O(log n′) awake via labeled distance trees (Lemma 11)",
		IDScheme: `distinct 40-bit IDs (Feistel over the 2⁴⁰ space), stream "big-ids"`,
		rank:     5,
		prepare: func(g *Graph, opt Options, cfg *sim.Config) (sim.StepProgram, func() Output, error) {
			ids := bigIDs(g.N(), opt.Seed)
			np := 1
			for _, c := range g.Components() {
				if len(c) > np {
					np = len(c)
				}
			}
			if cfg.Bandwidth == 0 {
				// Lemma 11 allows O(log I)-bit messages; the IDs come from a
				// 2⁴⁰ space, so the CONGEST budget scales with log I.
				cfg.Bandwidth = sim.DefaultBandwidth(1 << 40)
			}
			sp, res, err := ldtmis.Prepare(g.internal(), ids, np, ldtmis.VariantAwake)
			if err != nil {
				return nil, nil, err
			}
			return sp, func() Output { return Output{InMIS: res.InMIS} }, nil
		},
		verify: verifyMIS,
	})
}
