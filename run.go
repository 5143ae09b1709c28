package awakemis

import (
	"context"
	"fmt"
	"sync"

	"awakemis/internal/sim"
)

// RunOption configures Run. Options compose left to right.
type RunOption func(*runOptions)

type runOptions struct {
	workers  int
	observer RoundObserver
	trials   []Trial
	out      []*Report
}

// WithWorkers sets an explicit engine worker-pool size that overrides
// Options.Workers without being recorded in the Report — the caller's
// share of a machine-wide budget. The Runner and the service daemon
// use it to divide one budget among concurrent runs while keeping
// reports bit-identical to standalone calls (worker counts never
// change results). Zero falls back to Options.Workers.
func WithWorkers(n int) RunOption {
	return func(ro *runOptions) { ro.workers = n }
}

// WithObserver attaches a RoundObserver for this run without mutating
// the Spec. Local-only, like Options.Observer (which it overrides):
// never serialized, never affects results or report bytes.
func WithObserver(obs RoundObserver) RunOption {
	return func(ro *runOptions) { ro.observer = obs }
}

// Trial is one replication lane of a vectorized run: the same Spec
// re-seeded. Name overrides the report name when non-empty; Observer
// receives that lane's per-round stream (local-only).
type Trial struct {
	Seed     int64
	Name     string
	Observer RoundObserver
}

// WithVectorizedTrials runs the Spec once per trial — re-seeded per
// Trial — and fills out (which must have exactly one slot per trial)
// with the per-trial Reports; Run returns out[0]. With an explicit
// Graph.Seed every trial shares one graph, and the R trials run as the
// R lanes of one merged pass over its adjacency (one traversal per
// round feeds every lane's independent splitmix64 stream). With a zero
// Graph.Seed each trial's graph derives from its own seed, so the
// trials run as R one-lane passes. Either way each lane's Report is
// bit-identical to a plain Run of the same per-trial Spec, WallMS
// aside. A failure in any trial fails the whole call.
func WithVectorizedTrials(trials []Trial, out []*Report) RunOption {
	return func(ro *runOptions) { ro.trials, ro.out = trials, out }
}

// Run builds the spec's graph and executes its task, returning the
// Report. It is the single spec-driven entry point: behavior beyond
// the plain run — worker budgets, observers, trial batches — is
// selected with functional options. Every run is R ≥ 1 lanes on one
// graph: a plain spec is one lane, and WithVectorizedTrials supplies R.
func Run(ctx context.Context, spec Spec, opts ...RunOption) (*Report, error) {
	var ro runOptions
	for _, opt := range opts {
		opt(&ro)
	}
	workers := ro.workers
	if workers == 0 {
		workers = spec.Options.Workers
	}
	if ro.observer != nil {
		spec.Options.Observer = ro.observer
	}
	specs, out := []Spec{spec}, make([]*Report, 1)
	if ro.trials != nil {
		if len(ro.out) != len(ro.trials) {
			return nil, fmt.Errorf("awakemis: WithVectorizedTrials: %d trials but %d report slots", len(ro.trials), len(ro.out))
		}
		if len(ro.trials) == 0 {
			return nil, fmt.Errorf("awakemis: WithVectorizedTrials: no trials")
		}
		specs, out = make([]Spec, len(ro.trials)), ro.out
		for i, tr := range ro.trials {
			sp := spec
			sp.Options.Seed = tr.Seed
			sp.Options.Observer = tr.Observer
			if tr.Name != "" {
				sp.Name = tr.Name
			}
			specs[i] = sp
		}
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	// Trials share a graph only when its seed is explicit; otherwise
	// each trial's graph derives from its own seed.
	lanes := len(specs)
	if spec.Graph.Seed == 0 {
		lanes = 1
	}
	for lo := 0; lo < len(specs); lo += lanes {
		if err := runLanes(ctx, specs[lo:lo+lanes], workers, out[lo:lo+lanes]); err != nil {
			return nil, err
		}
	}
	return out[0], nil
}

// runLanes builds the graph the specs share and runs them as the lanes
// of one sim.VectorEngine pass, filling out. Each lane runs the whole
// task pipeline — IDs, tracer, observer, verification, Report assembly
// — against its own lane handle. Lane 0 runs on the caller's
// goroutine, so a one-lane pass needs no other goroutine at all.
func runLanes(ctx context.Context, specs []Spec, workers int, out []*Report) error {
	g, err := specs[0].Graph.build(specs[0].Options.Seed)
	if err != nil {
		return fmt.Errorf("awakemis: spec %s: %w", specs[0].label(), err)
	}
	ve := sim.NewVectorEngine(len(specs), workers)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(specs))
	fail := func(i int, err error) {
		errs[i] = err
		// The lane may fail before reaching its engine call (it would
		// never arrive at the rendezvous): release the others.
		ve.Abort(err)
		cancel()
	}
	lane := func(i int) {
		// Node-program panics are engine errors already; this catches
		// the rest of the task pipeline, which lanes 1.. run on their
		// own goroutines.
		defer func() {
			if r := recover(); r != nil {
				fail(i, fmt.Errorf("awakemis: %s: panic: %v", specs[i].label(), r))
			}
		}()
		rep, err := runTask(ctx, g, specs[i].Task, specs[i].Options, ve.Lane(i))
		if err != nil {
			fail(i, err)
			return
		}
		rep.Name = specs[i].Name
		out[i] = rep
	}
	var wg sync.WaitGroup
	for i := 1; i < len(specs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lane(i)
		}(i)
	}
	lane(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
