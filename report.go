package awakemis

import (
	"encoding/json"

	"awakemis/internal/trace"
)

// Output is the union of task outputs; exactly the fields of the task
// that produced it are non-nil.
type Output struct {
	// InMIS[v] reports whether node v joined the MIS (MIS tasks).
	InMIS []bool `json:"in_mis,omitempty"`
	// Color[v] is node v's color in [0, Δ] (the coloring task).
	Color []int `json:"color,omitempty"`
	// MatchedWith[v] is v's partner, or -1 if unmatched (the matching
	// task).
	MatchedWith []int `json:"matched_with,omitempty"`
}

// GraphStats summarizes a run's input graph.
type GraphStats struct {
	N         int `json:"n"`
	M         int `json:"m"`
	MaxDegree int `json:"max_degree"`
}

func statsOf(g *Graph) GraphStats {
	return GraphStats{N: g.N(), M: g.M(), MaxDegree: g.MaxDegree()}
}

// Report is the machine-readable result envelope every task run
// produces: what ran, on what input, under which engine and seed, what
// came out, and what it cost. It marshals to JSON as-is (the per-node
// awake counters are elided from JSON to keep reports compact at
// million-node scale; use the in-memory Metrics.AwakePerNode).
//
// Reports are deterministic except WallMS: equal (graph, task, seed)
// runs produce identical reports on every engine at every worker count
// and batch size.
type Report struct {
	// Task names the registered task that produced this report.
	Task string `json:"task"`
	// Name is the spec's Name label ("" when the spec has none).
	Name string `json:"name,omitempty"`
	// Engine and Workers record the runtime configuration. Workers is
	// the requested Options.Workers (0 means automatic), not the value a
	// batch budget resolved it to.
	Engine  string `json:"engine"`
	Workers int    `json:"workers,omitempty"`
	// Seed is the run seed every stream derived from.
	Seed int64 `json:"seed"`
	// Graph summarizes the input.
	Graph GraphStats `json:"graph"`
	// Metrics holds the run's complexity measures.
	Metrics Metrics `json:"metrics"`
	// Output is the task's verified output.
	Output Output `json:"output"`
	// Verified reports that the task's oracle accepted the output (a
	// Report is only produced when it did).
	Verified bool `json:"verified"`
	// WallMS is the wall-clock run time in milliseconds — the only
	// nondeterministic field.
	WallMS float64 `json:"wall_ms"`
	// RoundSummary is the optional compact per-round block
	// (Options.RoundSummary); deterministic like the rest of the report.
	RoundSummary *RoundSummary `json:"round_summary,omitempty"`

	trace *trace.Collector
}

// JSON marshals the report (indented, stable field order).
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Timeline renders an ASCII awake-density timeline of the k busiest
// nodes (requires Options.Trace; otherwise returns a notice).
func (r *Report) Timeline(k, width int) string {
	if r.trace == nil {
		return "tracing disabled: set Options.Trace\n"
	}
	return r.trace.Timeline(r.trace.BusiestNodes(k), width)
}

// TraceSummary describes the recorded trace (requires Options.Trace).
func (r *Report) TraceSummary() string {
	if r.trace == nil {
		return "tracing disabled: set Options.Trace"
	}
	return r.trace.Summary()
}
