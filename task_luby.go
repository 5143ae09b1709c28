package awakemis

import (
	"awakemis/internal/luby"
	"awakemis/internal/sim"
)

// Registration shim for internal/luby: the classical baseline.
func init() {
	registerTask(Task{
		Name:     string(Luby),
		Kind:     "mis",
		Summary:  "Luby's classical MIS: O(log n) rounds and O(log n) awake",
		IDScheme: "anonymous: per-node randomness only",
		rank:     2,
		prepare: func(g *Graph, opt Options, cfg *sim.Config) (sim.StepProgram, func() Output, error) {
			sp, res := luby.Prepare(g.internal())
			return sp, func() Output { return Output{InMIS: res.InMIS} }, nil
		},
		verify: verifyMIS,
	})
}
