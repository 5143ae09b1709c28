package awakemis

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"awakemis/internal/rng"
	"awakemis/internal/study"
)

// StudySpec declares a parameter-sweep study: the axes of a grid
// (tasks × graph families × n-sweep × engines), a replication count,
// and a root seed. A study expands deterministically into the cross
// product of Specs — same StudySpec, same Specs, same seeds, every
// time — and executes into a StudyResult artifact that aggregates each
// cell's trials and fits every metric's growth over the n-sweep.
//
// Seeds derive through internal/rng: one graph seed per (family,
// size) and one run seed per (family, size, trial). Every task and
// trial in one cell column therefore runs on an identical graph —
// cross-task comparisons are paired, and replication measures
// algorithmic randomness on a fixed input, which is what lets
// executors batch a cell's trials into one vectorized pass. StudySpec marshals to/from JSON (the
// `awakemis -study` file, the POST /v1/studies body, and the
// `graphgen -format study` output).
type StudySpec struct {
	// Name labels the study and its artifact (optional).
	Name string `json:"name,omitempty"`
	// Tasks are the registered task names to sweep (required).
	Tasks []string `json:"tasks"`
	// Families are the graph families with their generator knobs, one
	// cell column per entry (default: gnp with its default density).
	// Each entry's N and Seed must be zero — the Sizes axis supplies
	// node counts and seeds are derived from Seed.
	Families []GraphSpec `json:"families,omitempty"`
	// Sizes is the n-sweep (default 64, 256, 1024). Growth fits need at
	// least two sizes.
	Sizes []int `json:"sizes,omitempty"`
	// Engines is the engine axis. The only engine is EngineStepped
	// (the default); the axis stays part of the spec and artifact
	// shape.
	Engines []Engine `json:"engines,omitempty"`
	// Trials is the replication count per cell (default 3).
	Trials int `json:"trials,omitempty"`
	// Seed is the root seed every cell seed derives from.
	Seed int64 `json:"seed,omitempty"`
	// Options is the base for every expanded Spec. Its Seed and Engine
	// must be zero (the study axes supply them); Workers and Trace are
	// zeroed during resolution — neither changes results, and keeping
	// them out of expanded specs is what makes local and daemon-served
	// artifacts byte-identical.
	Options Options `json:"options,omitempty"`
}

// maxStudySpecs caps a study's expansion (cells × trials). Validation
// rejects larger grids before any expansion is allocated, so the
// daemon can accept StudySpecs from the network without a small JSON
// body ballooning into an unbounded in-memory spec list.
const maxStudySpecs = 100_000

// label names the study in errors and progress lines.
func (ss StudySpec) label() string {
	if ss.Name != "" {
		return ss.Name
	}
	return "(unnamed)"
}

// Resolved returns the spec with every default filled in: families,
// sizes, engines, and trials populated, engine names resolved, and
// result-irrelevant base options (Workers, Trace) zeroed. Cells,
// Specs, and Accumulator all operate on the resolved form, and the
// StudyResult artifact embeds it.
func (ss StudySpec) Resolved() StudySpec {
	out := ss
	if len(out.Families) == 0 {
		out.Families = []GraphSpec{{Family: "gnp"}}
	}
	fams := make([]GraphSpec, len(out.Families))
	for i, f := range out.Families {
		f.Family = strings.ToLower(f.Family)
		if f.Family == "" {
			f.Family = "gnp"
		}
		fams[i] = f
	}
	out.Families = fams
	if len(out.Sizes) == 0 {
		out.Sizes = []int{64, 256, 1024}
	}
	if len(out.Engines) == 0 {
		out.Engines = []Engine{EngineStepped}
	}
	engs := make([]Engine, len(out.Engines))
	for i, e := range out.Engines {
		if e == "" {
			e = EngineStepped
		}
		engs[i] = e
	}
	out.Engines = engs
	if out.Trials == 0 {
		out.Trials = 3
	}
	out.Options.Workers = 0
	out.Options.Trace = false
	return out
}

// Validate checks the study without running it: every axis well
// formed, no duplicate axis entries, and every expanded Spec valid.
// Errors wrap ErrInvalidSpec, so the daemon maps them to 400.
func (ss StudySpec) Validate() error {
	if err := ss.check(); err != nil {
		if errors.Is(err, ErrInvalidSpec) {
			return err
		}
		return fmt.Errorf("awakemis: %w study %s: %s", ErrInvalidSpec, ss.label(), err)
	}
	return nil
}

func (ss StudySpec) check() error {
	if len(ss.Tasks) == 0 {
		return fmt.Errorf("missing tasks (have %s)", strings.Join(TaskNames(), "|"))
	}
	for _, task := range ss.Tasks {
		if _, ok := TaskByName(task); !ok {
			return fmt.Errorf("unknown task %q (have %s)", task, strings.Join(TaskNames(), "|"))
		}
	}
	if ss.Trials < 0 {
		return fmt.Errorf("trials must be non-negative, got %d (0 means the default, 3)", ss.Trials)
	}
	r := ss.Resolved()
	// Bound the expansion before allocating it: every entry point
	// (StudyRunner.Run, the daemon, the CLI) validates first, so a tiny
	// JSON body with a huge trial count or axis product can never OOM the
	// process. Each factor is checked against the cap before it is
	// multiplied in — the short-circuit keeps the running product at
	// most cap², so the arithmetic can never overflow past the check.
	specs := int64(1)
	for _, axis := range []int{len(r.Families), len(r.Tasks), len(r.Sizes), len(r.Engines), r.Trials} {
		if int64(axis) > maxStudySpecs || specs*int64(axis) > maxStudySpecs {
			return fmt.Errorf("study expands to more than %d runs (families × tasks × sizes × engines × trials); split the grid", maxStudySpecs)
		}
		specs *= int64(axis)
	}
	if ss.Options.Seed != 0 {
		return fmt.Errorf("options.seed must be zero: the study's root seed derives every cell seed")
	}
	if ss.Options.Engine != "" {
		return fmt.Errorf("options.engine must be empty: the engines axis supplies it")
	}
	for i, f := range ss.Families {
		if f.N != 0 {
			return fmt.Errorf("families[%d]: n must be zero (the sizes axis supplies node counts)", i)
		}
		if f.Seed != 0 {
			return fmt.Errorf("families[%d]: seed must be zero (cell seeds are derived from the study seed)", i)
		}
	}
	for i, n := range ss.Sizes {
		if n < 1 {
			return fmt.Errorf("sizes[%d]: need at least one node, got %d", i, n)
		}
	}
	if err := dupCheck("tasks", r.Tasks); err != nil {
		return err
	}
	famKeys := make([]string, len(r.Families))
	for i, f := range r.Families {
		famKeys[i] = familyKey(f)
	}
	if err := dupCheck("families", famKeys); err != nil {
		return err
	}
	sizeKeys := make([]string, len(r.Sizes))
	for i, n := range r.Sizes {
		sizeKeys[i] = strconv.Itoa(n)
	}
	if err := dupCheck("sizes", sizeKeys); err != nil {
		return err
	}
	engKeys := make([]string, len(r.Engines))
	for i, e := range r.Engines {
		engKeys[i] = string(e)
	}
	if err := dupCheck("engines", engKeys); err != nil {
		return err
	}
	// Validating every expanded spec catches the cross-axis conflicts a
	// per-axis check cannot (a regular family whose degree reaches one
	// of the sizes, an unknown task, a bad engine name, ...).
	for _, spec := range r.Specs() {
		if err := spec.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// dupCheck rejects repeated axis entries — a duplicate would silently
// double a cell column and skew every aggregate.
func dupCheck(axis string, keys []string) error {
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			return fmt.Errorf("%s: duplicate entry %q", axis, k)
		}
		seen[k] = true
	}
	return nil
}

// familyKey renders a family axis entry as a compact label: the
// family name plus any explicitly set generator knobs, so two entries
// sweeping the same family at different densities stay distinct.
func familyKey(f GraphSpec) string {
	key := f.Family
	var knobs []string
	if f.P != 0 {
		knobs = append(knobs, "p="+strconv.FormatFloat(f.P, 'g', -1, 64))
	}
	if f.Degree != 0 {
		knobs = append(knobs, "d="+strconv.Itoa(f.Degree))
	}
	if f.Radius != 0 {
		knobs = append(knobs, "r="+strconv.FormatFloat(f.Radius, 'g', -1, 64))
	}
	if len(knobs) > 0 {
		key += "(" + strings.Join(knobs, ",") + ")"
	}
	return key
}

// grid returns the expansion shape of a resolved spec.
func (ss StudySpec) grid() study.Grid {
	return study.Grid{
		Families: len(ss.Families), Tasks: len(ss.Tasks),
		Sizes: len(ss.Sizes), Engines: len(ss.Engines),
		Trials: ss.Trials,
	}
}

// StudyCell identifies one aggregation cell of the grid: a (task,
// family, n, engine) combination whose Trials runs are summarized
// together. Index is the cell's position in enumeration order
// (families × tasks × sizes × engines, family-major).
type StudyCell struct {
	Index  int    `json:"index"`
	Task   string `json:"task"`
	Family string `json:"family"`
	N      int    `json:"n"`
	Engine Engine `json:"engine"`
}

// label renders the cell for spec names and progress lines.
func (c StudyCell) label() string {
	return fmt.Sprintf("%s/%s/n=%d/%s", c.Task, c.Family, c.N, c.Engine)
}

// Cells enumerates the resolved study's aggregation cells in
// deterministic order.
func (ss StudySpec) Cells() []StudyCell {
	r := ss.Resolved()
	g := r.grid()
	cells := make([]StudyCell, 0, g.Cells())
	for fi, fam := range r.Families {
		key := familyKey(fam)
		for ti, task := range r.Tasks {
			for si, n := range r.Sizes {
				for ei, eng := range r.Engines {
					cells = append(cells, StudyCell{
						Index: g.CellIndex(fi, ti, si, ei),
						Task:  task, Family: key, N: n, Engine: eng,
					})
				}
			}
		}
	}
	return cells
}

// Specs expands the resolved study into its cross product of runnable
// Specs: one per (cell, trial), in cell order — spec i belongs to cell
// i/Trials, trial i%Trials. Every seed is resolved (derived from the
// study seed per (family, size, trial)), so the expansion is exactly
// reproducible and identical specs hit the daemon's content-addressed
// cache across re-submissions.
func (ss StudySpec) Specs() []Spec {
	r := ss.Resolved()
	g := r.grid()
	specs := make([]Spec, 0, g.Specs())
	for _, fam := range r.Families {
		key := familyKey(fam)
		for _, task := range r.Tasks {
			for _, n := range r.Sizes {
				for _, eng := range r.Engines {
					cell := StudyCell{Task: task, Family: key, N: n, Engine: eng}
					for t := 0; t < r.Trials; t++ {
						gs := fam
						gs.N = n
						// All trials of a cell column share one explicitly
						// seeded graph: replication measures algorithmic
						// randomness on a fixed input, and executors can
						// batch a cell's trials into one vectorized pass.
						gs.Seed = g.GraphSeed(r.Seed, key, n)
						opt := r.Options
						opt.Seed = g.TrialSeed(r.Seed, key, n, t)
						opt.Engine = eng
						specs = append(specs, Spec{
							Name:    fmt.Sprintf("%s/t%d", cell.label(), t),
							Task:    task,
							Graph:   gs,
							Options: opt,
						})
					}
				}
			}
		}
	}
	return specs
}

// studySamples flattens the deterministic numeric content of a Report
// into the named metric samples a study aggregates. WallMS is the one
// measure deliberately excluded: it is the Report's only
// nondeterministic field, and keeping it out is what makes StudyResult
// artifacts byte-identical across worker counts, batch orders, and
// direct-versus-daemon execution.
func studySamples(rep *Report) map[string]float64 {
	m := rep.Metrics
	return map[string]float64{
		"rounds":           float64(m.Rounds),
		"executed_rounds":  float64(m.ExecutedRounds),
		"max_awake":        float64(m.MaxAwake),
		"avg_awake":        m.AvgAwake,
		"awake_p50":        float64(m.AwakeQuantiles.P50),
		"awake_p90":        float64(m.AwakeQuantiles.P90),
		"awake_p99":        float64(m.AwakeQuantiles.P99),
		"messages_sent":    float64(m.MessagesSent),
		"bits_sent":        float64(m.BitsSent),
		"max_message_bits": float64(m.MaxMessageBits),
		"graph_m":          float64(rep.Graph.M),
		"graph_max_degree": float64(rep.Graph.MaxDegree),
	}
}

// studyMetricNames returns the aggregated metric names in sorted
// order — the iteration order every artifact rendering uses.
func studyMetricNames() []string {
	samples := studySamples(&Report{})
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// MetricSummary aggregates one metric's trials within a cell.
type MetricSummary struct {
	Trials int     `json:"trials"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

// StudyCellResult is one cell of the artifact: the cell's identity
// plus a summary of every aggregated metric (keys are the metric
// names of the Report wire format, plus graph_m / graph_max_degree
// for the generated inputs).
type StudyCellResult struct {
	StudyCell
	Metrics map[string]MetricSummary `json:"metrics"`
}

// StudyFit is one fitted growth law: how a metric's per-cell mean
// grows with n along one (task, family, engine) series, which
// candidate model fits best, the 95% bootstrap confidence interval of
// its slope, and the R² margin over the runner-up model.
type StudyFit struct {
	Task   string `json:"task"`
	Family string `json:"family"`
	Engine Engine `json:"engine"`
	Metric string `json:"metric"`
	// Model is the preferred growth model; A, B, R2 its least squares
	// fit y ≈ A + B·f(n).
	Model string  `json:"model"`
	A     float64 `json:"a"`
	B     float64 `json:"b"`
	R2    float64 `json:"r2"`
	// BLo, BHi bound the slope B (95% percentile bootstrap over the
	// n-sweep, deterministically seeded from the study seed).
	BLo float64 `json:"b_lo"`
	BHi float64 `json:"b_hi"`
	// RunnerUp is the best competing model and Margin the R² gap to
	// it. A small margin means the sweep cannot separate the models.
	RunnerUp string  `json:"runner_up"`
	Margin   float64 `json:"margin"`
}

// StudyResult is the self-contained study artifact: the resolved
// StudySpec that produced it, every cell's aggregated metrics, and the
// growth fits over the n-sweep. It is deterministic — equal StudySpecs
// produce byte-identical artifacts at every Parallel/Workers setting
// and on every engine, locally or through the daemon — because every
// folded sample is deterministic (wall time is excluded) and every
// rendering iterates in a fixed order.
type StudyResult struct {
	Study StudySpec         `json:"study"`
	Cells []StudyCellResult `json:"cells"`
	Fits  []StudyFit        `json:"fits,omitempty"`
}

// JSON marshals the artifact (indented, stable field order) — the
// exact bytes `awakemis -study` prints and GET /v1/studies/{id}
// serves.
func (r *StudyResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Cell finds a cell result by identity.
func (r *StudyResult) Cell(task, family string, n int, engine Engine) (StudyCellResult, bool) {
	for _, c := range r.Cells {
		if c.Task == task && c.Family == family && c.N == n && c.Engine == engine {
			return c, true
		}
	}
	return StudyCellResult{}, false
}

// Fit finds a growth fit by series and metric.
func (r *StudyResult) Fit(task, family string, engine Engine, metric string) (StudyFit, bool) {
	for _, f := range r.Fits {
		if f.Task == task && f.Family == family && f.Engine == engine && f.Metric == metric {
			return f, true
		}
	}
	return StudyFit{}, false
}

// fmtFloat renders a float for CSV cells: shortest representation
// that round-trips, so CSV renderings of a decoded artifact match the
// original byte for byte.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// CellsCSV renders the per-cell aggregates as long-format CSV: one
// row per (cell, metric).
func (r *StudyResult) CellsCSV() string {
	header := []string{"task", "family", "n", "engine", "metric", "trials", "mean", "std", "min", "median", "max"}
	var rows [][]string
	names := studyMetricNames()
	for _, c := range r.Cells {
		for _, name := range names {
			m, ok := c.Metrics[name]
			if !ok {
				continue
			}
			rows = append(rows, []string{
				c.Task, c.Family, strconv.Itoa(c.N), string(c.Engine), name,
				strconv.Itoa(m.Trials), fmtFloat(m.Mean), fmtFloat(m.Std),
				fmtFloat(m.Min), fmtFloat(m.Median), fmtFloat(m.Max),
			})
		}
	}
	return study.CSV(header, rows)
}

// FitsCSV renders the growth fits as CSV, one row per (series,
// metric).
func (r *StudyResult) FitsCSV() string {
	header := []string{"task", "family", "engine", "metric", "model", "a", "b", "r2", "b_lo", "b_hi", "runner_up", "margin"}
	rows := make([][]string, len(r.Fits))
	for i, f := range r.Fits {
		rows[i] = []string{
			f.Task, f.Family, string(f.Engine), f.Metric, f.Model,
			fmtFloat(f.A), fmtFloat(f.B), fmtFloat(f.R2),
			fmtFloat(f.BLo), fmtFloat(f.BHi), f.RunnerUp, fmtFloat(f.Margin),
		}
	}
	return study.CSV(header, rows)
}

// StudyAccumulator folds per-spec Reports into a StudyResult as they
// stream in, in any completion order. Only the extracted metric
// samples are retained — Reports are dropped after extraction, so a
// study over million-node graphs never holds more than its grid of
// float64s. Safe for concurrent use.
type StudyAccumulator struct {
	mu    sync.Mutex
	study StudySpec // resolved
	specs []Spec    // the expansion, built once (immutable)
	grid  study.Grid
	agg   *study.Aggregator
	added []bool
	done  int
}

// Accumulator validates the study and returns an empty accumulator
// for it. Feed it one Report per expanded Spec (Add with the spec's
// index in Specs() order), then call Result. The local StudyRunner
// and the daemon's study executor share this type — the reason their
// artifacts cannot drift apart.
func (ss StudySpec) Accumulator() (*StudyAccumulator, error) {
	if err := ss.Validate(); err != nil {
		return nil, err
	}
	r := ss.Resolved()
	g := r.grid()
	return &StudyAccumulator{
		study: r,
		specs: r.Specs(),
		grid:  g,
		agg:   study.NewAggregator(g.Cells(), g.Trials),
		added: make([]bool, g.Specs()),
	}, nil
}

// Study returns the resolved spec the accumulator aggregates for.
func (a *StudyAccumulator) Study() StudySpec { return a.study }

// Specs returns the study's expansion in index order — the slice Add
// indexes into, built once at construction so executors never
// re-expand the grid. Callers must not mutate it.
func (a *StudyAccumulator) Specs() []Spec { return a.specs }

// Total is the number of Reports the accumulator expects.
func (a *StudyAccumulator) Total() int { return len(a.added) }

// Done is the number of Reports recorded so far.
func (a *StudyAccumulator) Done() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.done
}

// Add records spec i's Report. Each index may be added once.
func (a *StudyAccumulator) Add(i int, rep *Report) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if i < 0 || i >= len(a.added) {
		return fmt.Errorf("awakemis: study %s: report index %d outside %d specs", a.study.label(), i, len(a.added))
	}
	if a.added[i] {
		return fmt.Errorf("awakemis: study %s: duplicate report for spec %d", a.study.label(), i)
	}
	if rep == nil {
		return fmt.Errorf("awakemis: study %s: nil report for spec %d", a.study.label(), i)
	}
	a.agg.AddTrial(i/a.grid.Trials, i%a.grid.Trials, studySamples(rep))
	a.added[i] = true
	a.done++
	return nil
}

// Result assembles the artifact. Every spec's Report must have been
// added.
func (a *StudyAccumulator) Result() (*StudyResult, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.done != len(a.added) {
		return nil, fmt.Errorf("awakemis: study %s incomplete: %d of %d runs recorded", a.study.label(), a.done, len(a.added))
	}
	names := studyMetricNames()
	cells := a.study.Cells()
	results := make([]StudyCellResult, len(cells))
	for i, c := range cells {
		ms := make(map[string]MetricSummary, len(names))
		for _, name := range names {
			s := a.agg.Summary(i, name)
			ms[name] = MetricSummary{
				Trials: s.N, Mean: s.Mean, Std: s.Std,
				Min: s.Min, Median: s.Median, Max: s.Max,
			}
		}
		results[i] = StudyCellResult{StudyCell: c, Metrics: ms}
	}

	var fits []StudyFit
	if len(a.study.Sizes) >= 2 {
		xs := make([]float64, len(a.study.Sizes))
		for i, n := range a.study.Sizes {
			xs[i] = float64(n)
		}
		series := 0
		for fi, fam := range a.study.Families {
			key := familyKey(fam)
			for ti, task := range a.study.Tasks {
				for ei, eng := range a.study.Engines {
					for _, metric := range names {
						ys := make([]float64, len(a.study.Sizes))
						for si := range a.study.Sizes {
							ys[si] = a.agg.Mean(a.grid.CellIndex(fi, ti, si, ei), metric)
						}
						f := study.FitSeries(xs, ys, 200, rng.Derive(a.study.Seed, "study-fit/"+metric, int64(series)))
						fits = append(fits, StudyFit{
							Task: task, Family: key, Engine: eng, Metric: metric,
							Model: f.Model, A: f.A, B: f.B, R2: f.R2,
							BLo: f.BLo, BHi: f.BHi,
							RunnerUp: f.RunnerUp, Margin: f.Margin,
						})
					}
					series++
				}
			}
		}
	}
	return &StudyResult{Study: a.study, Cells: results, Fits: fits}, nil
}

// StudyRunner executes studies locally: the streaming unit executor.
// The expansion is scheduled in units of one cell — the Trials
// consecutive specs sharing a graph — and each unit runs as one
// merged Trials-lane pass through Run's WithVectorizedTrials. The
// per-trial Reports, and therefore the artifact, are bit-identical
// (WallMS aside) to plain runs of the expanded specs. Units run
// concurrently under a shared worker budget,
// Reports fold into the accumulator as units complete, and the
// artifact is assembled when the grid drains. The zero value is
// usable.
type StudyRunner struct {
	// Parallel caps how many units run concurrently (0 means one per
	// CPU).
	Parallel int
	// Workers is the total engine worker budget divided among the
	// units in flight (0 means one per CPU). Never changes results.
	Workers int
	// OnProgress, when non-nil, receives one callback per finished
	// spec, serialized.
	OnProgress func(Progress)
}

// Run executes the study and returns its artifact. Cancellation
// aborts in-flight simulations at their next round boundary.
func (sr *StudyRunner) Run(ctx context.Context, ss StudySpec) (*StudyResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	acc, err := ss.Accumulator()
	if err != nil {
		return nil, err
	}
	specs := acc.Specs()
	trials := acc.Study().Trials
	units := len(specs) / trials

	parallel := sr.Parallel
	if parallel <= 0 {
		parallel = runtime.NumCPU()
	}
	if parallel > units {
		parallel = units
	}
	budget := sr.Workers
	if budget <= 0 {
		budget = runtime.NumCPU()
	}
	perUnit := budget / max(parallel, 1)
	if perUnit < 1 {
		perUnit = 1
	}

	errs := make([]error, len(specs))
	var addErr error
	sem := make(chan struct{}, max(parallel, 1))
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	// finish records one unit's outcomes: accumulate successes and
	// deliver the serialized per-spec progress stream.
	finish := func(lo int, reps []*Report, unitErrs []error) {
		mu.Lock()
		defer mu.Unlock()
		for j := range reps {
			i := lo + j
			errs[i] = unitErrs[j]
			if unitErrs[j] == nil && reps[j] != nil {
				if err := acc.Add(i, reps[j]); err != nil && addErr == nil {
					addErr = err
				}
			}
			done++
			if sr.OnProgress != nil {
				sr.OnProgress(Progress{
					Done: done, Total: len(specs),
					Index: i, Spec: specs[i], Report: reps[j], Err: unitErrs[j],
				})
			}
		}
	}
	for u := 0; u < units; u++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			unit := specs[lo : lo+trials]
			reps := make([]*Report, trials)
			unitErrs := make([]error, trials)
			fail := func(err error) {
				for j := range unitErrs {
					reps[j], unitErrs[j] = nil, err
				}
			}
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
				tr := make([]Trial, trials)
				for j, sp := range unit {
					tr[j] = Trial{Seed: sp.Options.Seed, Name: sp.Name}
				}
				if _, err := Run(ctx, unit[0], WithWorkers(perUnit), WithVectorizedTrials(tr, reps)); err != nil {
					fail(err)
				}
			case <-ctx.Done():
				fail(ctx.Err())
			}
			finish(lo, reps, unitErrs)
		}(u * trials)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("awakemis: study %s: %w", acc.Study().label(), err)
	}
	failed := 0
	var first error
	for _, err := range errs {
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	if failed > 0 {
		return nil, fmt.Errorf("awakemis: study %s: %d of %d specs failed (first: %w)",
			acc.Study().label(), failed, len(specs), first)
	}
	if addErr != nil {
		return nil, addErr
	}
	return acc.Result()
}
