package sim

import (
	"context"

	"awakemis/internal/graph"
)

// Engine executes a step program over a graph. Implementations must
// honor the package's determinism contract: identical (graph, program,
// Config.Seed) runs produce identical Metrics and per-node outputs at
// every worker and lane count. Reports record every run's engine as
// "stepped", the name the vector engine has always carried.
type Engine interface {
	// Run executes prog on every node of g under cfg. cfg.Engine is
	// ignored (the receiver runs the program). Engines poll ctx at every
	// round boundary: once it is cancelled or past its deadline, Run
	// stops the simulation and returns an error wrapping ctx.Err().
	Run(ctx context.Context, g *graph.Graph, prog StepProgram, cfg Config) (*Metrics, error)
}

// Default returns the engine RunStep uses when Config.Engine is nil:
// the vector engine as a reusable one-lane pass with one worker per
// CPU.
func Default() Engine { return soloEngine{} }

// soloEngine runs each call as a fresh one-lane VectorEngine pass. A
// single lane is its own last arrival, so the pass is driven on the
// caller's goroutine with no rendezvous. Zero workers means one per
// CPU.
type soloEngine struct{ workers int }

// Run implements Engine.
func (e soloEngine) Run(ctx context.Context, g *graph.Graph, prog StepProgram, cfg Config) (*Metrics, error) {
	return NewVectorEngine(1, e.workers).Lane(0).Run(ctx, g, prog, cfg)
}
