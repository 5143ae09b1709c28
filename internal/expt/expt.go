// Package expt is the experiment harness: it regenerates, as printed
// tables, the quantitative content of every theorem, lemma, and figure
// of the paper (the experiment index is All; cmd/experiments runs it).
// Each experiment validates its outputs against the verify oracles
// before reporting numbers.
package expt

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"

	"awakemis"
	"awakemis/internal/graph"
	"awakemis/internal/greedy"
	"awakemis/internal/ldtmis"
	"awakemis/internal/rng"
	"awakemis/internal/sim"
	"awakemis/internal/stats"
	"awakemis/internal/verify"
	"awakemis/internal/vtmis"
	"awakemis/internal/vtree"
)

// Options configures a harness run.
type Options struct {
	// Seed makes the whole suite reproducible.
	Seed int64
	// Sizes is the n sweep; nil means the default sweep.
	Sizes []int
	// Trials per configuration; 0 means 3.
	Trials int
	// Quick shrinks sweeps for CI-speed runs.
	Quick bool
	// Workers caps the engine's worker pool (0 = one per CPU).
	Workers int
	// Context cancels the whole suite: experiments poll it at round
	// boundaries and between runs. Nil means context.Background().
	Context context.Context
}

// ctx returns the harness context.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o Options) withDefaults() Options {
	if o.Trials == 0 {
		o.Trials = 3
	}
	if len(o.Sizes) == 0 {
		if o.Quick {
			o.Sizes = []int{64, 256}
		} else {
			o.Sizes = []int{64, 256, 1024, 4096}
		}
	}
	return o
}

// Experiment is one reproducible experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options, w io.Writer) error
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{"f1", "Figure 1: virtual binary trees B([1,6]) and B*([1,6])", runF1},
		{"f2", "Figure 2: communication sets S3([1,6]), S5([1,6])", runF2},
		{"e1", "Theorem 13: Awake-MIS awake complexity vs n", runE1},
		{"e2", "Corollary 14: Awake-MIS round-variant vs n", runE2},
		{"e3", "Lemma 10: VT-MIS awake complexity vs ID bound I", runE3},
		{"e4", "Lemma 11: LDT-MIS awake complexity vs component size", runE4},
		{"e5", "Lemma 2: residual sparsity after greedy prefix", runE5},
		{"e6", "Lemma 3: graph shattering component sizes", runE6},
		{"e7", "Headline comparison: awake/round trade across algorithms", runE7},
		{"e8", "Node-averaged awake complexity (cf. §2 prior work)", runE8},
		{"e9", "Lemma 9/16: LDT construction and O(1)-awake operations", runE9},
		{"e10", "Ablation: Awake-MIS constants (C1, Δ', NP)", runE10},
		{"e11", "§7 extension: (Δ+1)-coloring in O(log I) awake", runE11},
		{"e12", "§7 extension: maximal matching with early-exit awake", runE12},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// workload builds the standard experiment graph for a size.
func workload(n int, seed int64) *awakemis.Graph {
	return awakemis.GNP(n, 4/float64(n), seed)
}

// run executes task on g through awakemis.Run, which checks the output
// against the task's verification oracle before returning.
func (o Options) run(task string, g *awakemis.Graph, opt awakemis.Options) (*awakemis.Report, error) {
	return awakemis.Run(o.ctx(), awakemis.Spec{Task: task, Options: opt},
		awakemis.WithGraph(g), awakemis.WithWorkers(o.Workers))
}

// runPrepared runs a step program from a package's Prepare directly on
// the engine, strict, and checks the MIS it leaves in inMIS. Only e3,
// e4 and e9 come here: their ID spaces (I = 16·n, or 2⁴⁰ IDs with a
// chosen n′ under N = 2¹⁶) are ones a Spec cannot express.
func (o Options) runPrepared(g *graph.Graph, sp sim.StepProgram, inMIS []bool, cfg sim.Config) (*sim.Metrics, error) {
	cfg.Strict, cfg.Workers = true, o.Workers
	m, err := sim.RunStepContext(o.ctx(), g, sp, cfg)
	if err != nil {
		return nil, err
	}
	return m, verify.CheckMIS(g, inMIS)
}

func runF1(o Options, w io.Writer) error {
	tr := vtree.Build(6)
	fmt.Fprintln(w, "B([1,6]) in-order labels (level order):", tr.BLabel)
	fmt.Fprintln(w, "B*([1,6]) labels g(x)=⌊x/2⌋+1 (level order):", tr.StarLabel)
	fmt.Fprintln(w, "paper Figure 1 root row: B root=8, B* root=5  ✓ reproduced")
	return nil
}

func runF2(o Options, w io.Writer) error {
	fmt.Fprintln(w, "S3([1,6]) =", vtree.CommSet(3, 6), "(paper: {3,4,5})")
	fmt.Fprintln(w, "S5([1,6]) =", vtree.CommSet(5, 6), "(paper: {5,6}; 7 clipped at I=6)")
	fmt.Fprintln(w, "shared round for IDs 3 < 5:", vtree.SharedRound(3, 5, 6), "(paper: 5)")
	return nil
}

// sweepMIS runs an MIS task over the size sweep and prints the table.
func sweepMIS(o Options, w io.Writer, task string) error {
	o = o.withDefaults()
	tb := &stats.Table{Header: []string{"n", "maxAwake", "avgAwake", "rounds", "execRounds", "messages"}}
	var xs, ys []float64
	for _, n := range o.Sizes {
		var maxAwake, avg, rounds, exec, msgs []float64
		for trial := 0; trial < o.Trials; trial++ {
			seed := o.Seed + int64(1000*n+trial)
			rep, err := o.run(task, workload(n, seed), awakemis.Options{Seed: seed, Strict: true})
			if err != nil {
				return fmt.Errorf("%s n=%d: %w", task, n, err)
			}
			m := rep.Metrics
			maxAwake = append(maxAwake, float64(m.MaxAwake))
			avg = append(avg, m.AvgAwake)
			rounds = append(rounds, float64(m.Rounds))
			exec = append(exec, float64(m.ExecutedRounds))
			msgs = append(msgs, float64(m.MessagesSent))
		}
		tb.Add(n, stats.Summarize(maxAwake).Mean, stats.Summarize(avg).Mean,
			stats.Summarize(rounds).Mean, stats.Summarize(exec).Mean, stats.Summarize(msgs).Mean)
		xs = append(xs, float64(n))
		ys = append(ys, stats.Summarize(maxAwake).Mean)
	}
	fmt.Fprint(w, tb)
	fit := stats.FitGrowth(xs, ys)
	fmt.Fprintf(w, "max-awake growth fit: %s (R²=%.3f); growth ratio %.2fx over sweep\n",
		fit.Model, fit.R2, stats.GrowthRatio(ys))
	return nil
}

// runStudySweep runs tasks × sizes through the public study engine —
// the declarative replacement for this package's historical private
// sweep loops. The study expands into Runner-backed concurrent specs,
// aggregates per cell, and fits growth models with bootstrap CIs;
// output verification happens inside awakemis.Run as always.
func runStudySweep(o Options, w io.Writer, tasks []string, sizes []int) error {
	o = o.withDefaults()
	if sizes == nil {
		sizes = o.Sizes
	}
	ss := awakemis.StudySpec{
		Name:    "expt/" + strings.Join(tasks, "+"),
		Tasks:   tasks,
		Sizes:   sizes,
		Trials:  o.Trials,
		Seed:    o.Seed,
		Options: awakemis.Options{Strict: true},
	}
	runner := &awakemis.StudyRunner{Workers: o.Workers}
	res, err := runner.Run(o.ctx(), ss)
	if err != nil {
		return err
	}
	printStudy(w, res)
	return nil
}

// printStudy renders a study artifact as the harness's usual fixed
// width table plus one growth-fit line per task.
func printStudy(w io.Writer, res *awakemis.StudyResult) {
	tb := &stats.Table{Header: []string{"task", "n", "maxAwake", "±std", "avgAwake", "rounds", "execRounds", "messages"}}
	for _, c := range res.Cells {
		m := c.Metrics
		tb.Add(c.Task, c.N, m["max_awake"].Mean, m["max_awake"].Std, m["avg_awake"].Mean,
			m["rounds"].Mean, m["executed_rounds"].Mean, m["messages_sent"].Mean)
	}
	fmt.Fprint(w, tb)
	for _, f := range res.Fits {
		if f.Metric != "max_awake" {
			continue
		}
		fmt.Fprintf(w, "%-14s max-awake growth: %-9s (R²=%.3f, B∈[%.2f, %.2f], margin %.3f over %s)\n",
			f.Task, f.Model, f.R2, f.BLo, f.BHi, f.Margin, f.RunnerUp)
	}
}

// runE1 reproduces the Theorem 13 n-sweep through the study engine:
// the table is exactly a one-task study over the size axis.
func runE1(o Options, w io.Writer) error {
	fmt.Fprintln(w, "Awake-MIS (Theorem 13). Expected shape: max awake ~O(log log n) — nearly flat.")
	return runStudySweep(o, w, []string{"awake-mis"}, nil)
}

func runE2(o Options, w io.Writer) error {
	fmt.Fprintln(w, "Awake-MIS round variant (Corollary 14, deterministic LDT construction).")
	fmt.Fprintln(w, "Note: with the randomized ConstructAwake substitution (see internal/ldt),")
	fmt.Fprintln(w, "the paper's round-complexity advantage of this variant inverts; awake stays O(log log n)·log* n.")
	return sweepMIS(o, w, string(awakemis.AwakeMISRound))
}

func runE3(o Options, w io.Writer) error {
	o = o.withDefaults()
	fmt.Fprintln(w, "VT-MIS (Lemma 10): awake ≤ ⌈log I⌉+1 (+1 model round), rounds ≤ I.")
	tb := &stats.Table{Header: []string{"I", "n", "maxAwake", "bound ⌈log I⌉+2", "rounds"}}
	for _, n := range o.Sizes {
		for _, factor := range []int{1, 16} {
			idBound := n * factor
			seed := o.Seed + int64(idBound)
			// workload's graph in its internal form: the vt-mis task
			// draws IDs from [1, n], so I = 16·n needs a direct run.
			g := graph.GNP(n, 4/float64(n), rand.New(rand.NewSource(seed)))
			// The ID permutation draws from its own derived stream, never
			// the raw seed the graph generator consumed.
			perm := rand.New(rand.NewSource(rng.Derive(seed, "perm-ids", 0))).Perm(idBound)[:n]
			ids := make([]int, n)
			for v := range ids {
				ids[v] = perm[v] + 1
			}
			sp, res, err := vtmis.Prepare(g, ids, idBound)
			if err != nil {
				return err
			}
			m, err := o.runPrepared(g, sp, res.InMIS, sim.Config{Seed: seed})
			if err != nil {
				return err
			}
			tb.Add(idBound, n, m.MaxAwake, vtree.Depth(idBound)+2, m.Rounds)
		}
	}
	fmt.Fprint(w, tb)
	return nil
}

func runE4(o Options, w io.Writer) error {
	o = o.withDefaults()
	fmt.Fprintln(w, "LDT-MIS (Lemma 11): awake O(log n′ + n′·log n′ / log I), independent of the 2⁴⁰ ID space.")
	tb := &stats.Table{Header: []string{"n'", "variant", "maxAwake", "rounds", "messages"}}
	sizes := []int{8, 16, 32, 64}
	if o.Quick {
		sizes = []int{8, 16}
	}
	for _, np := range sizes {
		for _, v := range []ldtmis.Variant{ldtmis.VariantAwake, ldtmis.VariantRound} {
			seed := o.Seed + int64(np) + int64(v)
			g := graph.Cycle(np)
			// Standalone LDT-MIS with a chosen n′ under N = 2¹⁶ has no
			// Spec, so it runs directly.
			sp, res, err := ldtmis.Prepare(g, rng.IDs40(np, seed), np, v)
			if err != nil {
				return err
			}
			m, err := o.runPrepared(g, sp, res.InMIS, sim.Config{Seed: seed, N: 1 << 16})
			if err != nil {
				return err
			}
			tb.Add(np, v.String(), m.MaxAwake, m.Rounds, m.MessagesSent)
		}
	}
	fmt.Fprint(w, tb)
	return nil
}

func runE5(o Options, w io.Writer) error {
	o = o.withDefaults()
	fmt.Fprintln(w, "Residual sparsity (Lemma 2): max degree of G[V_t' \\ N(M_t)] vs (t'/t)·ln(n/ε), ε=1/n.")
	tb := &stats.Table{Header: []string{"n", "t", "t'", "residual maxDeg", "bound"}}
	n := o.Sizes[len(o.Sizes)-1]
	if n < 256 {
		n = 256
	}
	rng := rand.New(rand.NewSource(o.Seed + 5))
	for trial := 0; trial < o.Trials; trial++ {
		g := graph.GNP(n, 8/float64(n), rng)
		order := rng.Perm(n)
		for _, tc := range []struct{ t, tp int }{{n / 16, n / 4}, {n / 8, n}, {n / 4, n}} {
			got := greedy.ResidualMaxDegree(g, order, tc.t, tc.tp)
			bound := float64(tc.tp) / float64(tc.t) * 2 * math.Log(float64(n))
			if float64(got) > bound {
				return fmt.Errorf("lemma 2 violated: deg %d > bound %.1f", got, bound)
			}
			tb.Add(n, tc.t, tc.tp, got, bound)
		}
	}
	fmt.Fprint(w, tb)
	return nil
}

func runE6(o Options, w io.Writer) error {
	o = o.withDefaults()
	fmt.Fprintln(w, "Shattering (Lemma 3): max component of H[U_j] over 2Δ random classes vs 6·ln(n/ε), ε=1/n.")
	tb := &stats.Table{Header: []string{"n", "Δ", "max component", "bound 12·ln n"}}
	rng := rand.New(rand.NewSource(o.Seed + 6))
	for _, n := range o.Sizes {
		for _, d := range []int{4, 8} {
			if d >= n {
				continue
			}
			h := graph.RandomRegular(n, d, rng)
			sizes := greedy.Shatter(h, rng)
			got := greedy.MaxShatteredComponent(sizes)
			bound := 12 * math.Log(float64(n))
			if float64(got) > bound {
				return fmt.Errorf("lemma 3 violated: component %d > bound %.1f", got, bound)
			}
			tb.Add(n, h.MaxDegree(), got, bound)
		}
	}
	fmt.Fprint(w, tb)
	return nil
}

// runE7 runs the headline comparison through the study engine: one
// multi-task study over the n-sweep (the same graphs under every
// algorithm — cell seeds derive from (family, size, trial) only, so
// the comparison is paired), plus a supplemental study for the naive
// baseline, whose Θ(n²) awake node-rounds make large sizes
// impractical.
func runE7(o Options, w io.Writer) error {
	o = o.withDefaults()
	fmt.Fprintln(w, "Comparison (the abstract's headline): awake complexity vs round complexity.")
	fmt.Fprintln(w, "Expected shape: Luby max-awake ~ Θ(log n) (doubles over the sweep);")
	fmt.Fprintln(w, "Awake-MIS max-awake ~ Θ(log log n) (near-flat) at the cost of many sleeping rounds.")
	if err := runStudySweep(o, w, []string{"luby", "vt-mis", "awake-mis"}, nil); err != nil {
		return err
	}
	var small []int
	for _, n := range o.Sizes {
		if n <= 1024 {
			small = append(small, n)
		}
	}
	if len(small) == 0 {
		return nil
	}
	fmt.Fprintln(w)
	return runStudySweep(o, w, []string{"naive-greedy"}, small)
}

func runE8(o Options, w io.Writer) error {
	o = o.withDefaults()
	fmt.Fprintln(w, "Node-averaged awake complexity (§2: prior work achieves O(1) average;")
	fmt.Fprintln(w, "this paper optimizes the worst case — footnote 4 notes both are attainable).")
	tb := &stats.Table{Header: []string{"n", "algorithm", "avgAwake", "maxAwake", "max/avg"}}
	for _, n := range o.Sizes {
		seed := o.Seed + int64(n)
		g := workload(n, seed)
		for _, task := range []awakemis.Algorithm{awakemis.Luby, awakemis.AwakeMIS} {
			rep, err := o.run(string(task), g, awakemis.Options{Seed: seed})
			if err != nil {
				return err
			}
			m := rep.Metrics
			tb.Add(n, string(task), m.AvgAwake, m.MaxAwake, float64(m.MaxAwake)/m.AvgAwake)
		}
	}
	fmt.Fprint(w, tb)
	return nil
}

func runE9(o Options, w io.Writer) error {
	fmt.Fprintln(w, "LDT machinery (Lemma 9 / Lemma 16): construction awake grows with log n′;")
	fmt.Fprintln(w, "broadcast and ranking cost O(1) awake rounds each on top.")
	tb := &stats.Table{Header: []string{"n'", "construction", "maxAwake", "rounds"}}
	sizes := []int{8, 32, 128}
	if o.Quick {
		sizes = []int{8, 32}
	}
	for _, np := range sizes {
		for _, v := range []ldtmis.Variant{ldtmis.VariantAwake, ldtmis.VariantRound} {
			seed := o.Seed + int64(np)
			g := graph.Path(np)
			// As in e4: a chosen n′ under N = 2¹⁶ has no Spec.
			sp, res, err := ldtmis.Prepare(g, rng.IDs40(np, seed), np, v)
			if err != nil {
				return err
			}
			m, err := o.runPrepared(g, sp, res.InMIS, sim.Config{Seed: seed, N: 1 << 16})
			if err != nil {
				return err
			}
			tb.Add(np, v.String(), m.MaxAwake, m.Rounds)
		}
	}
	fmt.Fprint(w, tb)
	return nil
}
