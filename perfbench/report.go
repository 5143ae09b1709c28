package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metric is one printed number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string // sample count or base, for the human-readable block
}

// layerDoc says which end-to-end metric, on which workload, a per-layer
// metric should move. README.md carries the same table.
type layerDoc struct {
	name, unit, moves string
}

var layerDocs = []layerDoc{
	{"graph.gen_s", "s", "reports_per_s on study-lanes; max_rss_mb"},
	{"graph.alloc_b_per_node", "B", "max_rss_mb; reports_per_s on study-lanes"},
	{"sim.rounds", "count", "reports_per_s on study-lanes; spec_s_p50 on solve-awake-mis"},
	{"sim.awake_node_rounds", "count", "reports_per_s on study-lanes; spec_s_p50 on solve-awake-mis"},
	{"sim.msgs_sent", "count", "reports_per_s on study-lanes; spec_s_p50 on solve-awake-mis"},
	{"sim.bits", "bit", "reports_per_s on study-lanes; spec_s_p50 on solve-awake-mis"},
	{"sim.delivered_frac", "frac", "reports_per_s on study-lanes; spec_s_p50 on solve-awake-mis"},
	{"sim.round_s", "s", "reports_per_s on study-lanes; spec_s_p50 on solve-awake-mis"},
	{"sim.ns_per_awake_node_round", "ns", "reports_per_s on study-lanes; spec_s_p50 on solve-awake-mis"},
	{"task.run_s", "s", "spec_s_p50, cpu_s_per_report on solve-awake-mis"},
	{"task.off_round_s", "s", "spec_s_p50, cpu_s_per_report on solve-awake-mis"},
	{"task.alloc_b_per_node", "B", "max_rss_mb, cpu_s_per_report on solve-awake-mis"},
	{"task.mallocs_per_node", "count", "cpu_s_per_report on solve-awake-mis"},
	{"runtime.gc_cpu_frac", "frac", "cpu_s_per_report on solve-awake-mis"},
	{"runtime.gc_cycles", "count", "cpu_s_per_report, max_rss_mb on solve-awake-mis"},
	{"verify.verify_s", "s", "spec_s_p50 on every workload (a small share)"},
	{"report.encode_s", "s", "spec_s_p50 on service-mix and solve-awake-mis"},
	{"report.bytes", "B", "spec_s_p50 on service-mix and solve-awake-mis"},
	{"study.run_s", "s", "reports_per_s on study-lanes"},
	{"study.unit_s_p50", "s", "reports_per_s on study-lanes"},
	{"study.lanes_per_pass", "count", "reports_per_s on study-lanes (8 = the vector path ran)"},
	{"study.artifact_bytes", "B", "reports_per_s on study-lanes"},
	{"client.submit_s_p50", "s", "spec_s_p50 on service-mix"},
	{"client.wait_s_p50", "s", "spec_s_p50 on service-mix"},
	{"service.miss_s_p50", "s", "spec_s_p50, spec_s_p90, reports_per_s on service-mix"},
	{"service.hit_s_p50", "s", "spec_s_p50, reports_per_s on service-mix"},
	{"service.store_hit_s_p50", "s", "spec_s_p90 on service-mix"},
	{"service.cache_hit_frac", "frac", "spec_s_p50, reports_per_s on service-mix"},
	{"service.coalesced", "count", "reports_per_s on service-mix"},
	{"service.runs_per_distinct_spec", "ratio", "reports_per_s, cpu_s_per_report on service-mix (1 = no wasted run)"},
	{"store.hits", "count", "spec_s_p90 on service-mix"},
	{"store.bytes", "B", "spec_s_p90 on service-mix"},
	{"store.errors", "count", "spec_s_p90 on service-mix"},
	{"cluster.forwarded", "count", "spec_s_p90 on service-mix"},
	{"cluster.forward_errors", "count", "spec_s_p90 on service-mix"},
	{"cluster.peer_skew", "ratio", "spec_s_p90 on service-mix"},
	{"trace.overhead_frac", "frac", "none: traced wall ÷ untraced wall − 1"},
	{"trace.unaccounted_frac", "frac", "none: share of spec spans no child span covers"},
}

// endToEnd computes the end-to-end metrics of the run.
func (b *bench) endToEnd() []metric {
	r := &b.res
	var rate, cpu, lats []float64
	for _, w := range r.windows {
		if w.reports == 0 {
			continue
		}
		rate = append(rate, float64(w.reports)/w.dur)
		cpu = append(cpu, w.cpu/float64(w.reports))
		lats = append(lats, w.lats...)
	}
	over := fmt.Sprintf("median of %d windows; %d reports in %.3f s", len(rate), r.reports, r.elapsed.Seconds())
	latNote := fmt.Sprintf("n=%d", len(lats))
	return []metric{
		{"setup_s", "s", median(r.setup), fmt.Sprintf("median of %d set-ups", len(r.setup))},
		{"reports_per_s", "1/s", median(rate), over},
		{"spec_s_p50", "s", median(lats), latNote},
		{"spec_s_p90", "s", quantile(lats, 0.9), latNote},
		{"cpu_s_per_report", "s", median(cpu), fmt.Sprintf("median of %d windows; %.3f CPU-s in all", len(cpu), r.cpu.Seconds())},
		{"max_rss_mb", "MB", float64(readUsage().maxRSS) / (1 << 20), "peak resident set of the process"},
	}
}

// perLayer computes every per-layer metric. A layer the workload does
// not exercise reads 0.
func (b *bench) perLayer() []metric {
	a := b.lay
	r := &b.res
	per := func(x float64) float64 { return ratio(x, a.reports) }
	runS := per(a.runS)
	genS := per(a.genS)
	roundS := per(a.roundS)
	verifyS := ratio(a.verifyS, a.verifies)
	taskRun := runS - genS
	vals := map[string]float64{
		"graph.gen_s":                 genS,
		"graph.alloc_b_per_node":      ratio(a.genAllocB, a.genNodes),
		"sim.rounds":                  per(a.rounds),
		"sim.awake_node_rounds":       per(a.awake),
		"sim.msgs_sent":               per(a.sent),
		"sim.bits":                    per(a.bits),
		"sim.delivered_frac":          ratio(a.delivered, a.sent),
		"sim.round_s":                 roundS,
		"sim.ns_per_awake_node_round": ratio(a.roundS*1e9, a.awake),
		"task.run_s":                  taskRun,
		"task.off_round_s":            taskRun - roundS - verifyS,
		"task.alloc_b_per_node":       ratio(a.taskAllocB, a.laneNodes),
		"task.mallocs_per_node":       ratio(a.taskMallocs, a.laneNodes),
		"runtime.gc_cpu_frac":         ratio(r.rt.gcCPU, r.rt.totalCPU),
		"runtime.gc_cycles":           ratio(float64(r.rt.gcCycles), float64(r.reports)),
		"verify.verify_s":             verifyS,
		"report.encode_s":             ratio(a.encodeS, a.encodes),
		"report.bytes":                ratio(a.reportBytes, a.encodes),
		"study.lanes_per_pass":        float64(a.maxLanes),
	}
	for k, v := range r.layers {
		vals[k] = v
	}
	spans := b.tr.Spans()
	if err := checkNesting(spans); err != nil {
		r.problem("spans do not nest: %v", err)
	}
	vals["trace.unaccounted_frac"] = unaccounted(spans)
	vals["trace.overhead_frac"] = overhead(r.tracedS, r.specS, r.tracedClass, r.specClass)
	if u := vals["trace.unaccounted_frac"]; u > maxUnaccounted {
		r.problem("trace.unaccounted_frac %.4g exceeds the bound %.2g", u, maxUnaccounted)
	}
	ms := make([]metric, len(layerDocs))
	for i, d := range layerDocs {
		ms[i] = metric{Name: d.name, Unit: d.unit, Value: vals[d.name], Note: d.moves}
	}
	return ms
}

// overhead compares traced with untraced operations of the same class
// (one class unless the workload mixes kinds of operation): the
// traced-count-weighted mean of the ratios of their medians, minus 1.
func overhead(traced, untraced []float64, tracedClass, untracedClass []string) float64 {
	group := func(xs []float64, cls []string) map[string][]float64 {
		m := map[string][]float64{}
		for i, x := range xs {
			c := ""
			if cls != nil {
				c = cls[i]
			}
			m[c] = append(m[c], x)
		}
		return m
	}
	t, u := group(traced, tracedClass), group(untraced, untracedClass)
	var w, acc float64
	for c, xs := range t {
		if len(u[c]) == 0 {
			continue
		}
		w += float64(len(xs))
		acc += float64(len(xs)) * median(xs) / median(u[c])
	}
	return ratio(acc, w) - 1
}

// maxUnaccounted bounds the share of spec spans that child spans leave
// uncovered: above it the layer breakdown no longer adds up to the whole.
const maxUnaccounted = 0.02

// unaccounted is the share of all "spec" span time not covered by the
// spans' children.
func unaccounted(spans []Span) float64 {
	self := selfTimes(spans)
	var total, left float64
	for _, s := range spans {
		if s.Name == "spec" {
			total += float64(s.dur())
			left += float64(self[s.ID])
		}
	}
	return ratio(left, total)
}

func printBlock(title string, ms []metric) {
	fmt.Printf("# %s\n", title)
	for _, m := range ms {
		fmt.Printf("#   %-16s %14.6g %-5s  %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
}

// printLayers prints the per-layer table, one group per module.
func printLayers(workload string, ms []metric) {
	fmt.Printf("# per-layer (%s, traced; times are per verified report unless named p50)\n", workload)
	group := ""
	for _, m := range ms {
		g, _, _ := strings.Cut(m.Name, ".")
		if g != group {
			group = g
			fmt.Printf("#   [%s]\n", g)
		}
		fmt.Printf("#     %-30s %14.6g %-5s  moves %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
}

func metricsJSON(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return out
}

// benchSpec is the part of BENCHMARK.json the run checks itself against.
type benchSpec struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading %s (run from the repository root): %w", path, err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

// matchDeclared checks that the printed metrics are exactly the
// declared ones, with the declared units.
func matchDeclared(printed []metric, decl []declared) error {
	want := make(map[string]string, len(decl))
	for _, d := range decl {
		want[d.Name] = d.Unit
	}
	if len(printed) != len(want) {
		return fmt.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(printed), len(want))
	}
	for _, m := range printed {
		unit, ok := want[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", m.Name)
		}
		if unit != m.Unit {
			return fmt.Errorf("metric %s has unit %s, BENCHMARK.json says %s", m.Name, m.Unit, unit)
		}
	}
	return nil
}

// hostFacts describes where and on what code the run happened.
func hostFacts(rev string, seed int64, heldout bool) string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s git_rev=%s source_sha256=%s seed=%d heldout=%t heldout_seed=%d",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev, sourceDigest(), seed, heldout, heldOutSeed)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources and module files under the working
// directory, which names the code under test when there is no git
// revision to read.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
