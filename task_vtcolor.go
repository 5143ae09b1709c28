package awakemis

import (
	"awakemis/internal/sim"
	"awakemis/internal/verify"
	"awakemis/internal/vtcolor"
)

// Registration shim for internal/vtcolor: greedy (Δ+1)-coloring, the
// first §7 extension.
func init() {
	registerTask(Task{
		Name:     TaskColoring,
		Kind:     "coloring",
		Summary:  "greedy (Δ+1)-coloring in O(log n) awake rounds (§7 extension)",
		IDScheme: `random permutation of [1, n], stream "perm-ids"`,
		rank:     6,
		prepare: func(g *Graph, opt Options, cfg *sim.Config) (sim.StepProgram, func() Output, error) {
			n := g.N()
			sp, res, err := vtcolor.Prepare(g.internal(), permIDs(n, opt.Seed), n)
			if err != nil {
				return nil, nil, err
			}
			return sp, func() Output { return Output{Color: res.Color} }, nil
		},
		verify: func(g *Graph, out Output) error {
			return verify.CheckColoring(g.internal(), out.Color)
		},
	})
}
