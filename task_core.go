package awakemis

import (
	"awakemis/internal/core"
	"awakemis/internal/ldtmis"
	"awakemis/internal/sim"
)

// Registration shim for internal/core: the paper's headline Awake-MIS
// algorithm (Theorem 13) and its round-efficient variant
// (Corollary 14).
func init() {
	registerTask(Task{
		Name:     string(AwakeMIS),
		Kind:     "mis",
		Summary:  "O(log log n)-awake MIS, the paper's main result (Theorem 13)",
		IDScheme: "anonymous: per-node randomness only, random poly(N) IDs drawn internally",
		rank:     0,
		prepare:  prepareAwakeMIS(ldtmis.VariantAwake),
		verify:   verifyMIS,
	})
	registerTask(Task{
		Name:     string(AwakeMISRound),
		Kind:     "mis",
		Summary:  "Awake-MIS on the deterministic LDT construction (Corollary 14)",
		IDScheme: "anonymous: per-node randomness only, random poly(N) IDs drawn internally",
		rank:     1,
		prepare:  prepareAwakeMIS(ldtmis.VariantRound),
		verify:   verifyMIS,
	})
}

func prepareAwakeMIS(variant ldtmis.Variant) func(*Graph, Options, *sim.Config) (sim.StepProgram, func() Output, error) {
	return func(g *Graph, opt Options, cfg *sim.Config) (sim.StepProgram, func() Output, error) {
		params := opt.Params
		if variant == ldtmis.VariantRound {
			params.Variant = ldtmis.VariantRound
		}
		sp, res := core.Prepare(g.internal(), params, cfg)
		return sp, func() Output { return Output{InMIS: res.InMIS} }, nil
	}
}
