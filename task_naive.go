package awakemis

import (
	"awakemis/internal/naive"
	"awakemis/internal/sim"
)

// Registration shim for internal/naive: the O(I)-awake sequential
// greedy baseline (§5.3).
func init() {
	registerTask(Task{
		Name:     string(NaiveGreedy),
		Kind:     "mis",
		Summary:  "naive distributed sequential greedy MIS: O(I) awake (§5.3)",
		IDScheme: `random permutation of [1, n], stream "perm-ids"`,
		rank:     3,
		prepare: func(g *Graph, opt Options, cfg *sim.Config) (sim.StepProgram, func() Output, error) {
			n := g.N()
			sp, res, err := naive.Prepare(g.internal(), permIDs(n, opt.Seed), n)
			if err != nil {
				return nil, nil, err
			}
			return sp, func() Output { return Output{InMIS: res.InMIS} }, nil
		},
		verify: verifyMIS,
	})
}
