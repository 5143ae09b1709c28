package awakemis

// EdgeBound exposes the edge count Validate bounds a spec's graph by.
func (gs GraphSpec) EdgeBound() (float64, bool) { return gs.edges(gs.Family) }
