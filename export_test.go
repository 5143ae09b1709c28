package awakemis

import (
	"context"

	"awakemis/internal/sim"
)

// RunLockstep runs a spec's task on the lockstep reference engine: the
// oracle the production engine's reports are checked against.
func RunLockstep(spec Spec) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g, err := spec.Graph.build(spec.Options.Seed)
	if err != nil {
		return nil, err
	}
	rep, err := runTask(context.Background(), g, spec.Task, spec.Options, sim.NewLockstepEngine())
	if err != nil {
		return nil, err
	}
	rep.Name = spec.Name
	return rep, nil
}

// EdgeBound exposes the edge count Validate bounds a spec's graph by.
func (gs GraphSpec) EdgeBound() (float64, bool) { return gs.edges(gs.Family) }
