package awakemis

import (
	"context"
	"fmt"
	"time"

	"awakemis/internal/sim"
)

// RunOption configures Run. Options compose left to right.
type RunOption func(*runOptions)

type runOptions struct {
	workers  int
	observer RoundObserver
	graph    *Graph
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
// the Spec. Local-only: never serialized, never affects results or
// report bytes. With WithVectorizedTrials each lane is observed by its
// Trial.Observer instead.
func WithObserver(obs RoundObserver) RunOption {
	return func(ro *runOptions) { ro.observer = obs }
}

// WithGraph runs the spec on g, a graph the caller already holds (read
// from a file, say), instead of generating spec.Graph; spec.Graph must
// then be the zero GraphSpec. Report.Graph describes g, so a run on
// the graph a GraphSpec generates has the same Report bytes as a run
// of a spec carrying that GraphSpec.
func WithGraph(g *Graph) RunOption {
	return func(ro *runOptions) { ro.graph = g }
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
// with the per-trial Reports; Run returns out[0]. With a graph from
// WithGraph or an explicit Graph.Seed every trial shares one graph,
// and the R trials run as the R lanes of one merged pass over its
// adjacency (one traversal per round feeds every lane's independent
// splitmix64 stream). Otherwise each trial's graph derives from its
// own seed, so the trials run as R one-lane passes. Either way each
// lane's Report is bit-identical to a plain Run of the same per-trial
// Spec, WallMS aside. Every trial is prepared, verified and reported on
// the calling goroutine, in trial order, around one direct engine call
// per pass. A failure in any trial fails the whole call.
func WithVectorizedTrials(trials []Trial, out []*Report) RunOption {
	return func(ro *runOptions) { ro.trials, ro.out = trials, out }
}

// Run executes the spec's task on the graph spec.Graph generates (or
// the one WithGraph hands over) and returns the Report. It is the
// single entry point: behavior beyond the plain run — a graph in hand,
// worker budgets, observers, trial batches — is selected with
// functional options. Every run is R ≥ 1 lanes on one
// graph: a plain spec is one lane, and WithVectorizedTrials supplies R.
// The output is always checked against the task's verification oracle
// before Run returns (a violation — possible only if a
// high-probability event failed — is reported as an error).
func Run(ctx context.Context, spec Spec, opts ...RunOption) (*Report, error) {
	var ro runOptions
	for _, opt := range opts {
		opt(&ro)
	}
	if ro.graph != nil && spec.Graph != (GraphSpec{}) {
		return nil, fmt.Errorf("awakemis: %w %s: WithGraph given with a non-zero spec graph", ErrInvalidSpec, spec.label())
	}
	workers := ro.workers
	if workers == 0 {
		workers = spec.Options.Workers
	}
	specs, obs, out := []Spec{spec}, []RoundObserver{ro.observer}, make([]*Report, 1)
	if ro.trials != nil {
		if len(ro.out) != len(ro.trials) {
			return nil, fmt.Errorf("awakemis: WithVectorizedTrials: %d trials but %d report slots", len(ro.trials), len(ro.out))
		}
		if len(ro.trials) == 0 {
			return nil, fmt.Errorf("awakemis: WithVectorizedTrials: no trials")
		}
		specs, obs, out = make([]Spec, len(ro.trials)), make([]RoundObserver, len(ro.trials)), ro.out
		for i, tr := range ro.trials {
			sp := spec
			sp.Options.Seed = tr.Seed
			if tr.Name != "" {
				sp.Name = tr.Name
			}
			specs[i], obs[i] = sp, tr.Observer
		}
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	// Trials share a graph when it is in hand or its seed is explicit;
	// otherwise each trial's graph derives from its own seed.
	lanes := len(specs)
	if ro.graph == nil && spec.Graph.Seed == 0 {
		lanes = 1
	}
	for lo := 0; lo < len(specs); lo += lanes {
		batch := specs[lo : lo+lanes]
		g := ro.graph
		if g == nil {
			var err error
			if g, err = batch[0].Graph.build(batch[0].Options.Seed); err != nil {
				return nil, fmt.Errorf("awakemis: spec %s: %w", batch[0].label(), err)
			}
		}
		if err := runLanes(ctx, g, batch, obs[lo:lo+lanes], workers, out[lo:lo+lanes]); err != nil {
			return nil, err
		}
	}
	return out[0], nil
}

// runLanes runs specs, which share g, as the lanes of one sim.RunLanes
// pass, lane i observed by obs[i], and fills out. It works on the
// caller's goroutine: it prepares every lane (IDs, observer, trace),
// makes the one merged pass, then verifies each lane and assembles its
// Report, in lane order. A panic anywhere in that pipeline becomes an
// error naming the spec whose step was running (lane 0's during the
// pass; node-program panics are errors of the pass already).
func runLanes(ctx context.Context, g *Graph, specs []Spec, obs []RoundObserver, workers int, out []*Report) (err error) {
	cur := 0
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("awakemis: %s: panic: %v", specs[cur].label(), r)
		}
	}()
	start := time.Now()
	lanes := make([]*lane, len(specs))
	progs := make([]sim.StepProgram, len(specs))
	cfgs := make([]sim.Config, len(specs))
	for i, spec := range specs {
		cur = i
		if lanes[i], err = newLane(g, spec, obs[i], workers); err != nil {
			return err
		}
		progs[i], cfgs[i] = lanes[i].prog, lanes[i].cfg
	}
	cur = 0
	ms, err := sim.RunLanes(ctx, g.internal(), progs, cfgs)
	if err != nil {
		return fmt.Errorf("awakemis: %s: %w", specs[0].Task, err)
	}
	for i, l := range lanes {
		cur = i
		if out[i], err = l.report(g, ms[i], start); err != nil {
			return err
		}
	}
	return nil
}
