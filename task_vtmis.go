package awakemis

import (
	"awakemis/internal/sim"
	"awakemis/internal/vtmis"
)

// Registration shim for internal/vtmis: Algorithm VT-MIS (Lemma 10).
func init() {
	registerTask(Task{
		Name:     string(VTMIS),
		Kind:     "mis",
		Summary:  "VT-MIS: O(log I) awake via the virtual binary tree (Lemma 10)",
		IDScheme: `random permutation of [1, n], stream "perm-ids"`,
		rank:     4,
		prepare: func(g *Graph, opt Options, cfg *sim.Config) (sim.StepProgram, func() Output, error) {
			n := g.N()
			sp, res, err := vtmis.Prepare(g.internal(), permIDs(n, opt.Seed), n)
			if err != nil {
				return nil, nil, err
			}
			return sp, func() Output { return Output{InMIS: res.InMIS} }, nil
		},
		verify: verifyMIS,
	})
}
