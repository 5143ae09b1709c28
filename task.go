package awakemis

import (
	"fmt"
	"sort"
	"time"

	"awakemis/internal/sim"
	"awakemis/internal/trace"
	"awakemis/internal/verify"
)

// Task is one registered problem: a name, an ID-assignment scheme, a
// prepare function, and an output verifier. Run — and through it
// Runner.RunBatch, StudyRunner.Run and the CLIs — dispatches through
// the task registry, so adding a problem means registering a Task, not
// editing the facade.
type Task struct {
	// Name identifies the task ("awake-mis", "coloring", ...).
	Name string
	// Kind is the problem family ("mis", "coloring", or "matching"),
	// which also names the Output field the task fills.
	Kind string
	// Summary is a one-line description with the paper reference.
	Summary string
	// IDScheme documents how the task derives per-node (or per-edge)
	// identifiers from Options.Seed.
	IDScheme string

	// rank orders the canonical task listing: the paper's MIS algorithms
	// first, then the §7 extensions.
	rank int
	// prepare builds the task's step program for g and a reader for the
	// Output the run records; cfg arrives resolved from opt and may be
	// adjusted (a task-specific default bandwidth, say).
	prepare func(g *Graph, opt Options, cfg *sim.Config) (sim.StepProgram, func() Output, error)
	// verify checks the task's output against its oracle.
	verify func(g *Graph, out Output) error
}

// taskRegistry holds every registered task, keyed by name. Tasks are
// registered from per-algorithm shim files (task_*.go) at init time.
var taskRegistry = map[string]*Task{}

// registerTask adds a task to the registry; shim files call it from
// init. Registering an incomplete or duplicate task is a programming
// error, caught at startup.
func registerTask(t Task) {
	switch {
	case t.Name == "" || t.Kind == "" || t.prepare == nil || t.verify == nil:
		panic(fmt.Sprintf("awakemis: incomplete task registration %+v", t))
	case taskRegistry[t.Name] != nil:
		panic("awakemis: duplicate task " + t.Name)
	}
	taskRegistry[t.Name] = &t
}

// Tasks returns every registered task in canonical order.
func Tasks() []Task {
	out := make([]Task, 0, len(taskRegistry))
	for _, t := range taskRegistry {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].rank != out[j].rank {
			return out[i].rank < out[j].rank
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TaskNames returns the registered task names in canonical order.
func TaskNames() []string {
	ts := Tasks()
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	return names
}

// TaskByName looks a task up by name.
func TaskByName(name string) (Task, bool) {
	t, ok := taskRegistry[name]
	if !ok {
		return Task{}, false
	}
	return *t, true
}

// lane is one spec's share of a merged pass: the task, program and
// config it contributes, and what its Report needs afterwards.
type lane struct {
	spec      Spec
	task      *Task
	prog      sim.StepProgram
	cfg       sim.Config
	output    func() Output
	collector *trace.Collector
	acc       *roundSummaryAcc
}

// newLane is Run's registry dispatch: it resolves spec's task — Run
// has validated spec, so the task is registered — and sim.Config — the
// pass's worker count, and one observer fanning out to the spec's
// trace collector, its round summary and the lane's observer obs — and
// prepares the task's program on g.
func newLane(g *Graph, spec Spec, obs RoundObserver, workers int) (*lane, error) {
	opt := spec.Options
	t := taskRegistry[spec.Task]
	l := &lane{spec: spec, task: t, cfg: sim.Config{
		Seed:      opt.Seed,
		N:         opt.N,
		Bandwidth: opt.Bandwidth,
		Strict:    opt.Strict,
		MaxRounds: opt.MaxRounds,
		Workers:   workers,
	}}
	if opt.Trace {
		l.collector = trace.NewCollector()
		l.cfg.NodeDetail = true
	}
	if opt.RoundSummary {
		l.acc = &roundSummaryAcc{}
	}
	if l.collector != nil || l.acc != nil || obs != nil {
		l.cfg.Observer = &simObserver{user: obs, acc: l.acc, trace: l.collector}
	}
	var err error
	if l.prog, l.output, err = t.prepare(g, opt, &l.cfg); err != nil {
		return nil, fmt.Errorf("awakemis: %s: %w", t.Name, err)
	}
	return l, nil
}

// report verifies the lane's output against its task's oracle and
// assembles the Report; m is the lane's share of the pass and start
// when the pass's pipeline began.
func (l *lane) report(g *Graph, m *sim.Metrics, start time.Time) (*Report, error) {
	out := l.output()
	if verr := l.task.verify(g, out); verr != nil {
		return nil, fmt.Errorf("awakemis: %s produced invalid output (failed w.h.p. event): %w", l.task.Name, verr)
	}
	rep := &Report{
		Name:     l.spec.Name,
		Task:     l.task.Name,
		Engine:   string(EngineStepped),
		Workers:  l.spec.Options.Workers,
		Seed:     l.spec.Options.Seed,
		Graph:    statsOf(g),
		Metrics:  fromSim(m),
		Output:   out,
		Verified: true,
		WallMS:   float64(time.Since(start)) / float64(time.Millisecond),
		trace:    l.collector,
	}
	if l.acc != nil {
		rep.RoundSummary = l.acc.summary()
	}
	return rep, nil
}

// verifyMIS is the output oracle shared by every MIS task.
func verifyMIS(g *Graph, out Output) error {
	return verify.CheckMIS(g.internal(), out.InMIS)
}
