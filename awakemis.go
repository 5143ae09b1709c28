// Package awakemis is a Go implementation of
//
//	Dufoulon, Moses Jr., Pandurangan.
//	"Distributed MIS in O(log log n) Awake Complexity." PODC 2023.
//
// It provides the paper's main algorithm — a randomized distributed
// maximal-independent-set algorithm whose worst-case awake complexity
// (the number of rounds any node must keep its radio on) is
// O(log log n) — together with the full stack it is built on: a
// SLEEPING-CONGEST network simulator, the virtual-binary-tree
// coordination technique, labeled distance trees, the auxiliary
// algorithms VT-MIS and LDT-MIS, the classical baselines the paper
// compares against, and the §7 extensions to (Δ+1)-coloring and
// maximal matching.
//
// Every problem is a registered Task, and every run goes through one
// entry point, Run(ctx, spec, ...RunOption), which returns a
// machine-readable Report whose output has been verified. Functional
// options select a graph already in hand (WithGraph), worker budgets
// (WithWorkers), per-round observers (WithObserver), and trial batches
// (WithVectorizedTrials) that execute all replications of a study cell
// in one merged pass. Every run is R ≥ 1 lanes of one engine pass; a
// plain spec is one lane. A Runner executes batches of Specs
// concurrently with deterministic seed derivation, and a StudyRunner
// sweeps a grid of them. Quick start:
//
//	g := awakemis.GNP(1024, 0.004, 1)
//	spec := awakemis.Spec{Task: "awake-mis", Options: awakemis.Options{Seed: 1}}
//	rep, err := awakemis.Run(ctx, spec, awakemis.WithGraph(g))
//	// rep.Output.InMIS is a verified MIS; rep.Metrics.MaxAwake is
//	// O(log log n); rep.JSON() is the wire form.
package awakemis

import (
	"math"
	"math/rand"
	"slices"

	"awakemis/internal/core"
	"awakemis/internal/rng"
	"awakemis/internal/sim"
)

// Algorithm names a distributed MIS algorithm: a Task of Kind "mis".
type Algorithm string

const (
	// AwakeMIS is the paper's main contribution (Theorem 13):
	// O(log log n) awake complexity.
	AwakeMIS Algorithm = "awake-mis"
	// AwakeMISRound is the Corollary 14 variant built on the
	// deterministic LDT construction.
	AwakeMISRound Algorithm = "awake-mis-round"
	// Luby is the classical O(log n)-round, O(log n)-awake baseline.
	Luby Algorithm = "luby"
	// NaiveGreedy is the O(I)-awake naive distributed sequential greedy
	// (§5.3), with IDs assigned as a random permutation of [1, n].
	NaiveGreedy Algorithm = "naive-greedy"
	// VTMIS is Algorithm VT-MIS (Lemma 10): O(log I) awake via the
	// virtual binary tree, with IDs a random permutation of [1, n].
	VTMIS Algorithm = "vt-mis"
	// LDTMIS is Algorithm LDT-MIS (Lemma 11): O(log n′) awake via
	// labeled distance trees, with IDs from a 2⁴⁰ space.
	LDTMIS Algorithm = "ldt-mis"
)

// Task names for the §7 extensions.
const (
	// TaskColoring is greedy (Δ+1)-coloring in O(log n) awake rounds.
	TaskColoring = "coloring"
	// TaskMatching is maximal matching with early-exit awake complexity.
	TaskMatching = "matching"
)

// Engine names the simulation runtime a Report records. There is one:
// EngineStepped, the vector engine of internal/sim, which runs every
// spec as R ≥ 1 lanes of a merged pass. The name stays on the wire so
// Report bytes and canonical spec hashes keep their form.
type Engine string

// EngineStepped is the only engine, and what "" means.
const EngineStepped Engine = "stepped"

// Options configures a run. The zero value is usable, and the struct
// marshals to/from JSON for batch spec files.
type Options struct {
	// Seed drives all randomness; equal seeds replay identical runs at
	// every worker count. Every derived stream (per-node
	// randomness, ID permutations, edge orders) comes from this seed
	// through the centralized splitmix64 deriver (see DeriveSeed).
	Seed int64 `json:"seed,omitempty"`
	// Engine must be "" or EngineStepped (see Engine).
	Engine Engine `json:"engine,omitempty"`
	// Workers caps the engine's worker pool (0 means one per
	// CPU). Worker count never changes results, only wall-clock time.
	Workers int `json:"workers,omitempty"`
	// N is the common polynomial upper bound on the network size known
	// to nodes (the paper's N). Zero means the exact node count.
	N int `json:"n,omitempty"`
	// Bandwidth overrides the CONGEST per-message bit budget
	// (default 16·⌈log₂ N⌉ + 16).
	Bandwidth int `json:"bandwidth,omitempty"`
	// Strict makes any message exceeding Bandwidth a run error.
	Strict bool `json:"strict,omitempty"`
	// MaxRounds aborts runaway schedules (default 2⁴⁰ rounds).
	MaxRounds int64 `json:"max_rounds,omitempty"`
	// Params tunes Awake-MIS constants (ignored by other tasks);
	// zero fields take paper-faithful defaults.
	Params core.Params `json:"params,omitempty"`
	// Trace records per-node awake timelines and message-loss counters,
	// exposed through Report.Timeline and Report.TraceSummary. It
	// attaches a trace collector to the run's round observer and asks
	// the engine for each round's awake node ids. The recorded node set
	// is sampled (first trace.DefaultMaxNodes ids) so tracing stays
	// bounded on million-node graphs.
	Trace bool `json:"trace,omitempty"`
	// RoundSummary embeds the compact, deterministic per-round block in
	// the Report (Report.RoundSummary). Unlike Trace it affects report
	// bytes, so it participates in spec canonicalization and caching.
	RoundSummary bool `json:"round_summary,omitempty"`
}

// Metrics reports the complexity measures of a run (§1.3–1.4).
type Metrics struct {
	// Rounds is the round complexity (sleeping rounds included).
	Rounds int64 `json:"rounds"`
	// ExecutedRounds is the number of rounds with at least one awake node.
	ExecutedRounds int64 `json:"executed_rounds"`
	// MaxAwake is the worst-case awake complexity max_v A_v.
	MaxAwake int64 `json:"max_awake"`
	// AvgAwake is the node-averaged awake complexity.
	AvgAwake float64 `json:"avg_awake"`
	// AwakeQuantiles is the compact wire summary of the per-node awake
	// distribution — what studies aggregate now that AwakePerNode never
	// reaches the wire.
	AwakeQuantiles AwakeQuantiles `json:"awake_quantiles"`
	// AwakePerNode is A_v for every node (elided from JSON; reports stay
	// compact at million-node scale — see AwakeQuantiles for the wire
	// summary).
	AwakePerNode []int64 `json:"-"`
	// MessagesSent and BitsSent measure communication volume.
	MessagesSent int64 `json:"messages_sent"`
	BitsSent     int64 `json:"bits_sent"`
	// MaxMessageBits is the largest message observed.
	MaxMessageBits int `json:"max_message_bits"`
}

// AwakeQuantiles summarizes the distribution of per-node awake rounds
// as nearest-rank quantiles: sorted[⌈q·n⌉-1]. Min is the best-off
// node; MaxAwake (the paper's headline measure) is the p100 and lives
// on Metrics directly.
type AwakeQuantiles struct {
	Min int64 `json:"min"`
	P25 int64 `json:"p25"`
	P50 int64 `json:"p50"`
	P75 int64 `json:"p75"`
	P90 int64 `json:"p90"`
	P99 int64 `json:"p99"`
}

// awakeQuantiles folds per-node awake counters into their wire
// summary. Deterministic: nearest-rank on the sorted counters.
func awakeQuantiles(per []int64) AwakeQuantiles {
	if len(per) == 0 {
		return AwakeQuantiles{}
	}
	sorted := append([]int64(nil), per...)
	slices.Sort(sorted)
	q := func(p float64) int64 {
		idx := int(math.Ceil(p*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		return sorted[idx]
	}
	return AwakeQuantiles{
		Min: sorted[0], P25: q(0.25), P50: q(0.50),
		P75: q(0.75), P90: q(0.90), P99: q(0.99),
	}
}

func fromSim(m *sim.Metrics) Metrics {
	return Metrics{
		Rounds:         m.Rounds,
		ExecutedRounds: m.ExecutedRounds,
		MaxAwake:       m.MaxAwake,
		AvgAwake:       m.AvgAwake(),
		AwakeQuantiles: awakeQuantiles(m.AwakePerNode),
		AwakePerNode:   append([]int64(nil), m.AwakePerNode...),
		MessagesSent:   m.MessagesSent,
		BitsSent:       m.BitsSent,
		MaxMessageBits: m.MaxMessageBits,
	}
}

// Verify checks that inMIS is a maximal independent set of g.
func Verify(g *Graph, inMIS []bool) error {
	return verifyMIS(g, Output{InMIS: inMIS})
}

// DeriveSeed derives an independent stream seed from a root seed: the
// centralized splitmix64 deriver every ID assignment, edge order, and
// batch-spec seed goes through (replacing the historical seed^const
// XORs, whose nearby constants produced correlated streams). Equal
// inputs give equal outputs, so derived seeds are as replayable as the
// root seed.
func DeriveSeed(seed int64, label string, n int64) int64 {
	return rng.Derive(seed, label, n)
}

// permIDs derives the random ID permutation of [1, n] used by the
// permutation-ID tasks (naive-greedy, vt-mis, coloring).
func permIDs(n int, seed int64) []int {
	perm := rand.New(rand.NewSource(rng.Derive(seed, "perm-ids", 0))).Perm(n)
	ids := make([]int, n)
	for v, p := range perm {
		ids[v] = p + 1
	}
	return ids
}

// bigIDs derives n distinct IDs from the 2⁴⁰ space (Lemma 11's I) via
// the collision-free Feistel generator — no rejection table.
func bigIDs(n int, seed int64) []int64 {
	return rng.IDs40(n, rng.Derive(seed, "big-ids", 0))
}
