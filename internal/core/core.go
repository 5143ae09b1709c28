// Package core implements Algorithm Awake-MIS (§6), the paper's main
// contribution: a randomized distributed MIS algorithm with
// O(log log n) worst-case awake complexity in SLEEPING-CONGEST
// (Theorem 13), plus the round-efficient variant built on the
// deterministic LDT construction (Corollary 14).
//
// Every node picks a batch (i, j) ∈ [1,ℓ] × [1,2Δ′] — level i with
// probability ∝ c·2^i·log n / n (so batch-level populations double) and
// j uniform. Batches are processed in 2ℓΔ′ phases: the first round of
// each phase is a communication round in which exactly the nodes whose
// virtual-binary-tree communication set contains the phase index wake
// and exchange states (so any node attends O(log log n) communication
// rounds yet, by Observation 5, always learns about MIS neighbors from
// earlier batches in time); the rest of the phase is an LDT-MIS window
// in which the still-undecided nodes of that batch — whose induced
// subgraph is shattered into O(log n)-size components by Lemmas 2
// and 3 — compute an LFMIS with respect to a fresh random ordering.
package core

import (
	"math"

	"awakemis/internal/graph"
	"awakemis/internal/ldtmis"
	"awakemis/internal/sim"
)

// Params configures Awake-MIS. The proof constants of §6 (batch
// probability 10·2^i log n/n, Δ′ = 9 ln(n⁴), component bound
// 6 ln(n⁴)) are asymptotic; the defaults here preserve every
// high-probability argument at laptop sizes while keeping the
// simulation tractable. Experiment e10 in internal/expt measures how
// each constant trades awake against round complexity.
type Params struct {
	// C1 scales the batch-level probabilities (paper: 10).
	C1 float64 `json:"c1,omitempty"`
	// DeltaPrime is Δ′, the residual-degree bound; batches per level
	// number 2Δ′. Zero means ⌈6·ln N⌉.
	DeltaPrime int `json:"delta_prime,omitempty"`
	// NP is the component-size bound handed to LDT-MIS phases.
	// Zero means ⌈12·ln N⌉.
	NP int `json:"np,omitempty"`
	// Variant selects the LDT construction inside phases:
	// ldtmis.VariantAwake gives Theorem 13, ldtmis.VariantRound gives
	// Corollary 14.
	Variant ldtmis.Variant `json:"variant,omitempty"`
	// IDSpace is the random-ID space (paper: poly(N)). Zero means N³.
	IDSpace int64 `json:"id_space,omitempty"`
}

// WithDefaults fills zero fields for a network bound N.
func (p Params) WithDefaults(n int) Params {
	if n < 2 {
		n = 2
	}
	ln := math.Log(float64(n))
	if p.C1 == 0 {
		p.C1 = 4
	}
	if p.DeltaPrime == 0 {
		p.DeltaPrime = int(math.Ceil(6 * ln))
	}
	if p.NP == 0 {
		p.NP = int(math.Ceil(12 * ln))
	}
	if p.IDSpace == 0 {
		nn := int64(n)
		p.IDSpace = nn * nn * nn
		if p.IDSpace < 1<<16 {
			p.IDSpace = 1 << 16
		}
	}
	return p
}

// Schedule is the deterministic phase timetable every node derives
// locally from (N, Params, bandwidth).
type Schedule struct {
	Levels      int   // ℓ
	BatchesPer  int   // 2Δ′
	TotalPhases int   // 2ℓΔ′
	PhaseSpan   int64 // 1 communication round + LDT-MIS window
	NP          int
	Variant     ldtmis.Variant
	cumProb     []float64 // cumProb[i-1] = P[level ≤ i]
}

// NewSchedule derives the timetable for a known bound n and bandwidth.
func NewSchedule(n int, params Params, bandwidth int) *Schedule {
	params = params.WithDefaults(n)
	ell := int(math.Ceil(math.Log2(float64(n)) - math.Log2(math.Log2(float64(max2(n, 4)))))) // ⌈log n − log log n⌉
	if ell < 1 {
		ell = 1
	}
	// Cumulative level probabilities F_i = min(1, C1·2^i·ln(n)/n);
	// levels past the cap would be empty, so the ladder truncates there.
	ln := math.Log(float64(n))
	cum := make([]float64, 0, ell)
	for i := 1; i <= ell; i++ {
		f := params.C1 * math.Pow(2, float64(i)) * ln / float64(n)
		if f >= 1 || i == ell {
			cum = append(cum, 1)
			break
		}
		cum = append(cum, f)
	}
	ell = len(cum)
	batches := 2 * params.DeltaPrime
	return &Schedule{
		Levels:      ell,
		BatchesPer:  batches,
		TotalPhases: ell * batches,
		PhaseSpan:   1 + ldtmis.Span(params.NP, bandwidth, params.Variant),
		NP:          params.NP,
		Variant:     params.Variant,
		cumProb:     cum,
	}
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// PhaseStart returns the first simulator round of phase p ∈ [1, total].
func (s *Schedule) PhaseStart(p int) int64 { return int64(p-1) * s.PhaseSpan }

// TotalRounds returns the timetable's horizon.
func (s *Schedule) TotalRounds() int64 { return int64(s.TotalPhases) * s.PhaseSpan }

// SampleBatch draws a batch (level, j) using the node's randomness
// source via the two uniform variates u1, u2 ∈ [0,1).
func (s *Schedule) SampleBatch(u1, u2 float64) (level, j int) {
	level = s.Levels
	for i, f := range s.cumProb {
		if u1 < f {
			level = i + 1
			break
		}
	}
	j = 1 + int(u2*float64(s.BatchesPer))
	if j > s.BatchesPer {
		j = s.BatchesPer
	}
	return level, j
}

// Phase maps a batch to its phase index under the lexicographic order g.
func (s *Schedule) Phase(level, j int) int { return (level-1)*s.BatchesPer + j }

// Result collects the algorithm's output.
type Result struct {
	InMIS []bool
	// Batch[v] is the phase index node v drew (diagnostics).
	Batch []int
}

// Prepare fixes the run's schedule from params and cfg — filling in
// cfg's default Bandwidth, which the schedule's chunking depends on —
// and returns Awake-MIS's step program for g and the Result it fills
// as the run completes.
func Prepare(g *graph.Graph, params Params, cfg *sim.Config) (sim.StepProgram, *Result) {
	n := cfg.N
	if n == 0 {
		n = g.N()
	}
	if n < 2 {
		n = 2
	}
	if cfg.Bandwidth == 0 {
		cfg.Bandwidth = sim.DefaultBandwidth(n)
	}
	params = params.WithDefaults(n)
	sched := NewSchedule(n, params, cfg.Bandwidth)
	res := &Result{InMIS: make([]bool, g.N()), Batch: make([]int, g.N())}
	return StepProgram(res, sched, params, n), res
}
