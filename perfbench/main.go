// Command perfbench is the repository's benchmark: spec in, verified
// Report bytes out, through the public entry points only (awakemis.Run,
// StudyRunner.Run, and the client against in-process service, cluster
// and store servers). Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload solve-awake-mis --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around each layer call and prints the per-layer
// metrics. The last line of standard output is one JSON object; the
// exit code is non-zero when any output is wrong. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is the workload seed kept out of tuning: a change that
// claims a gain must also show it with --heldout.
const heldOutSeed = 7_340_061

// setups is how many times each workload sets up; setup_s is their
// median.
const setups = 5

// processStart stands in for the process start: package initialisation
// runs before main, microseconds after exec.
var processStart = time.Now()

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	dur      time.Duration
	out      string    // directory for traces, results and digest records
	tr       *tracer   // nil in the untraced run
	lay      *layerAcc // nil in the untraced run
	digests  *digestBook
	res      result
}

// result is what a workload hands back for printing.
type result struct {
	attempted int
	failedOps map[int]string // op → first failure
	problems  []string       // failed self-checks
	setup     []float64      // seconds per set-up; the first from process start
	reports   int            // verified reports delivered in the timed phase
	elapsed   time.Duration  // wall time of the timed phase
	cpu       time.Duration  // process CPU time in the timed phase
	rt        rtSample       // runtime counter deltas over the timed phase
	// windows split the timed phase: one per operation where operations
	// run one at a time, one for a closed-loop phase. Throughput and CPU
	// per report are medians over them, so one operation slowed by other
	// tenants of the host does not move the result.
	windows []window
	specS   []float64 // spec in → verified bytes out, untraced operations
	tracedS []float64 // the same for traced operations
	// specClass and tracedClass name each operation's kind where a
	// workload mixes kinds (nil otherwise), so trace.overhead_frac
	// compares like with like.
	specClass, tracedClass []string
	layers                 map[string]float64
}

// failOp records a failed or wrong operation.
func (r *result) failOp(op int, format string, args ...any) {
	if r.failedOps == nil {
		r.failedOps = map[int]string{}
	}
	if _, ok := r.failedOps[op]; !ok {
		r.failedOps[op] = fmt.Sprintf(format, args...)
	}
}

// problem records a failed self-check.
func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// window is one stretch of the timed phase.
type window struct {
	dur, cpu float64 // wall and process CPU seconds
	reports  int
	lats     []float64 // spec in → verified bytes out of operations ending in it
}

// opWindow records one operation as its own window.
func (r *result) opWindow(u0 usage, lat float64, reports int) {
	r.windows = append(r.windows, window{dur: lat, cpu: (readUsage().cpu - u0.cpu).Seconds(), reports: reports, lats: []float64{lat}})
}

// timedPhase brackets the measured part of a workload.
type timedPhase struct {
	start time.Time
	u     usage
	rt    rtSample
}

func startTimed() timedPhase {
	return timedPhase{start: time.Now(), u: readUsage(), rt: readRuntime()}
}

// add folds a finished timed phase into the result and returns it as a
// window with no reports yet.
func (r *result) add(p timedPhase) window {
	dur, cpu := time.Since(p.start), readUsage().cpu-p.u.cpu
	r.elapsed += dur
	r.cpu += cpu
	d := readRuntime().sub(p.rt)
	r.rt.gcCycles += d.gcCycles
	r.rt.gcCPU += d.gcCPU
	r.rt.totalCPU += d.totalCPU
	return window{dur: dur.Seconds(), cpu: cpu.Seconds()}
}

var workloads = map[string]func(*bench) error{
	"solve-awake-mis": (*bench).solve,
	"study-lanes":     (*bench).study,
	"service-mix":     (*bench).serviceMix,
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "workload seed")
		secs     = flag.Int("seconds", 20, "length of the timed phase")
		traceOn  = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		heldout  = flag.Bool("heldout", false, "use the held-out seed instead of --seed")
		out      = flag.String("out", ".bench_build", "directory for traces, results and digest records")
		rev      = flag.String("rev", "none", "git revision of the code under test, for the record")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for name := range workloads {
			names = append(names, name)
		}
		sort.Strings(names)
		return 2, fmt.Errorf("unknown --workload %q (have %s)", *workload, strings.Join(names, ", "))
	}
	if *traceOn != 0 && *traceOn != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1")
	}
	if *secs < 1 {
		return 2, fmt.Errorf("--seconds must be at least 1")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return 1, err
	}
	for _, dir := range []string{"traces", "results", "digests", "tmp"} {
		if err := os.MkdirAll(filepath.Join(*out, dir), 0o755); err != nil {
			return 1, err
		}
	}
	b := &bench{workload: *workload, seed: *seed, dur: time.Duration(*secs) * time.Second, out: *out}
	if *heldout {
		b.seed = heldOutSeed
	}
	if *traceOn == 1 {
		b.tr, b.lay = newTracer(), &layerAcc{}
	}
	if b.digests, err = openDigests(filepath.Join(*out, "digests", *workload+".json")); err != nil {
		return 1, err
	}
	host := hostFacts(*rev, b.seed, *heldout)
	fmt.Printf("# perfbench %s  seed=%d  seconds=%d  trace=%d\n", b.workload, b.seed, *secs, *traceOn)
	fmt.Printf("# host  %s\n", host)

	if err := fn(b); err != nil {
		b.res.problem("%v", err)
	}
	if err := b.digests.save(); err != nil {
		b.res.problem("saving digest records: %v", err)
	}

	e2e := b.endToEnd()
	var printed []metric
	if b.tr == nil {
		printed = e2e
		printBlock("end-to-end (tracing off)", e2e)
	} else {
		layers := b.perLayer()
		printed = layers
		printBlock("end-to-end of this traced run (for context; the untraced run is the measurement)", e2e)
		printLayers(b.workload, layers)
		if err := writeSpans(filepath.Join(*out, "traces", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed)), b.tr.Spans()); err != nil {
			b.res.problem("writing spans: %v", err)
		}
	}
	declared := spec.EndToEnd
	if b.tr != nil {
		declared = spec.PerLayer
	}
	if err := matchDeclared(printed, declared); err != nil {
		b.res.problem("%v", err)
	}

	failed := len(b.res.failedOps)
	attempted := max(b.res.attempted, 1)
	fmt.Printf("# failed_frac  %.6g  (%d of %d operations)\n", float64(failed)/float64(attempted), failed, attempted)
	for _, op := range sortedKeys(b.res.failedOps) {
		fmt.Printf("# FAILED op %d: %s\n", op, b.res.failedOps[op])
	}
	for _, p := range b.res.problems {
		fmt.Printf("# FAILED check: %s\n", p)
	}
	correct := failed == 0 && len(b.res.problems) == 0

	line := map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed,
		"metrics": metricsJSON(printed),
	}
	saved := map[string]any{"host": host, "workload": b.workload, "seed": b.seed, "trace": *traceOn, "result": line}
	if data, err := json.MarshalIndent(saved, "", "  "); err == nil {
		name := fmt.Sprintf("%s-seed%d-trace%d.json", b.workload, b.seed, *traceOn)
		if err := os.WriteFile(filepath.Join(*out, "results", name), data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing result:", err)
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(data))
	if !correct {
		return 1, errors.New("outputs or self-checks failed")
	}
	return 0, nil
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
