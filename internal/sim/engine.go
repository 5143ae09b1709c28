package sim

import (
	"context"

	"awakemis/internal/graph"
)

// NodeProgram is either form of per-node algorithm: Program (goroutine
// form) or StepProgram (state-machine form). The lockstep engine runs
// both; the vector engine runs step-form programs only.
type NodeProgram interface {
	isNodeProgram()
}

// Engine executes a node program over a graph. Implementations must
// honor the package's determinism contract: identical (graph, program,
// Config.Seed) runs produce identical Metrics and per-node outputs on
// every engine.
type Engine interface {
	// Name identifies the engine ("stepped" for the vector engine,
	// "lockstep" for the reference engine).
	Name() string
	// Run executes prog on every node of g under cfg. cfg.Engine is
	// ignored (the receiver runs the program). Engines poll ctx at every
	// round boundary: once it is cancelled or past its deadline, Run
	// stops the simulation, releases every node, and returns an error
	// wrapping ctx.Err().
	Run(ctx context.Context, g *graph.Graph, prog NodeProgram, cfg Config) (*Metrics, error)
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

// Name implements Engine.
func (soloEngine) Name() string { return "stepped" }

// Run implements Engine.
func (e soloEngine) Run(ctx context.Context, g *graph.Graph, prog NodeProgram, cfg Config) (*Metrics, error) {
	return NewVectorEngine(1, e.workers).Lane(0).Run(ctx, g, prog, cfg)
}
