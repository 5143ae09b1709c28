package awakemis

import (
	"math/rand"

	"awakemis/internal/rng"
	"awakemis/internal/sim"
	"awakemis/internal/verify"
	"awakemis/internal/vtmatch"
)

// Registration shim for internal/vtmatch: maximal matching, the second
// §7 extension.
func init() {
	registerTask(Task{
		Name:     TaskMatching,
		Kind:     "matching",
		Summary:  "maximal matching with early-exit awake complexity (§7 extension)",
		IDScheme: `random permutation of the edges, stream "edge-perm"`,
		rank:     7,
		prepare: func(g *Graph, opt Options, cfg *sim.Config) (sim.StepProgram, func() Output, error) {
			src := rand.New(rand.NewSource(rng.Derive(opt.Seed, "edge-perm", 0)))
			perm := src.Perm(g.M())
			ids := vtmatch.EdgeIDs{}
			for i, e := range g.internal().Edges() {
				ids[e] = perm[i] + 1
			}
			sp, res, err := vtmatch.Prepare(g.internal(), ids, g.M())
			if err != nil {
				return nil, nil, err
			}
			return sp, func() Output { return Output{MatchedWith: res.MatchedWith} }, nil
		},
		verify: func(g *Graph, out Output) error {
			return verify.CheckMatching(g.internal(), out.MatchedWith)
		},
	})
}
