package awakemis

import (
	"awakemis/internal/sim"
	"awakemis/internal/trace"
)

// RoundStat is one executed round's flat aggregate, as delivered to a
// RoundObserver and streamed by `awakemis -runlog`: round number, how
// many nodes were awake, and what the round's traffic cost. All fields
// except ElapsedNS are deterministic for a fixed (graph, task, seed)
// on every engine at every worker count; summed over a run they equal
// the final Metrics exactly.
type RoundStat struct {
	// Round is the round number. Rounds in which every node sleeps are
	// skipped by the engines, so consecutive stats may jump.
	Round int64 `json:"round"`
	// Awake is the number of nodes awake this round.
	Awake int `json:"awake"`
	// Sent counts messages sent this round; Delivered counts the ones
	// that reached an awake receiver (the rest were lost to sleepers).
	Sent      int64 `json:"sent"`
	Delivered int64 `json:"delivered"`
	// Bits is the total wire size of this round's sends.
	Bits int64 `json:"bits"`
	// ElapsedNS is the wall time the engine spent on the round — the
	// only nondeterministic field.
	ElapsedNS int64 `json:"elapsed_ns"`
}

// RoundObserver receives one RoundStat per executed round, in round
// order, on the goroutine that called Run; the lanes of a merged pass
// are observed in turn within each round. Implementations should be
// cheap: they run once per round on the engine's hot path (though
// never per node or per message — cost is independent of graph size).
type RoundObserver interface {
	ObserveRound(RoundStat)
}

// simObserver adapts the facade observer surface to the engine hook:
// it hands sim.RoundStat to the optional trace collector, converts it
// into the public RoundStat and fans that to the optional round-summary
// accumulator and the caller's observer.
type simObserver struct {
	user  RoundObserver
	acc   *roundSummaryAcc
	trace *trace.Collector
}

var _ sim.RoundObserver = (*simObserver)(nil)

func (o *simObserver) ObserveRound(st sim.RoundStat) {
	if o.trace != nil {
		o.trace.ObserveRound(st)
	}
	rs := RoundStat{
		Round:     st.Round,
		Awake:     st.Awake,
		Sent:      st.Sent,
		Delivered: st.Delivered,
		Bits:      st.Bits,
		ElapsedNS: int64(st.Elapsed),
	}
	if o.acc != nil {
		o.acc.add(rs)
	}
	if o.user != nil {
		o.user.ObserveRound(rs)
	}
}

// RoundSummary is the Report's optional compact per-round block
// (Options.RoundSummary): run-level aggregates plus a bounded sequence
// of round buckets tracing the paper's awake/round tradeoff over time.
// It is fully deterministic — wall times are deliberately excluded so
// WallMS stays the Report's only nondeterministic field.
type RoundSummary struct {
	// Executed is the number of executed rounds summarized.
	Executed int64 `json:"executed"`
	// PeakAwake is the maximum awake-node count over all rounds, and
	// PeakRound the first round attaining it.
	PeakAwake int   `json:"peak_awake"`
	PeakRound int64 `json:"peak_round"`
	// Lost counts messages lost to sleeping receivers.
	Lost int64 `json:"lost"`
	// Buckets partitions the executed rounds, in order, into at most 64
	// equal-size groups (sizes double as the run grows, so the block
	// stays compact at any round count).
	Buckets []RoundBucket `json:"buckets,omitempty"`
}

// RoundBucket aggregates a consecutive range of executed rounds.
type RoundBucket struct {
	// FromRound and ToRound bound the rounds folded into this bucket
	// (inclusive; skipped all-asleep rounds in between carry no cost).
	FromRound int64 `json:"from_round"`
	ToRound   int64 `json:"to_round"`
	// Executed is the number of executed rounds in the bucket.
	Executed int64 `json:"executed"`
	// MaxAwake is the bucket's peak awake-node count; AwakeSum its
	// total awake node-rounds.
	MaxAwake int   `json:"max_awake"`
	AwakeSum int64 `json:"awake_sum"`
	// Sent, Delivered, and Bits total the bucket's traffic.
	Sent      int64 `json:"sent"`
	Delivered int64 `json:"delivered"`
	Bits      int64 `json:"bits"`
}

// maxRoundBuckets bounds RoundSummary.Buckets. When the accumulator
// fills all slots it merges adjacent pairs and doubles the per-bucket
// span, so memory stays O(1) however long the run is.
const maxRoundBuckets = 64

// roundSummaryAcc streams RoundStats into a RoundSummary without
// retaining them: O(maxRoundBuckets) state total.
type roundSummaryAcc struct {
	sum     RoundSummary
	buckets []RoundBucket
	span    int64 // executed rounds per full bucket
	fill    int64 // executed rounds folded into the open (last) bucket
}

func (a *roundSummaryAcc) add(st RoundStat) {
	a.sum.Executed++
	if st.Awake > a.sum.PeakAwake {
		a.sum.PeakAwake, a.sum.PeakRound = st.Awake, st.Round
	}
	a.sum.Lost += st.Sent - st.Delivered

	if a.span == 0 {
		a.span = 1
	}
	if a.fill == 0 { // open a new bucket
		if len(a.buckets) == maxRoundBuckets {
			a.mergePairs()
		}
		a.buckets = append(a.buckets, RoundBucket{FromRound: st.Round})
	}
	b := &a.buckets[len(a.buckets)-1]
	b.ToRound = st.Round
	b.Executed++
	if st.Awake > b.MaxAwake {
		b.MaxAwake = st.Awake
	}
	b.AwakeSum += int64(st.Awake)
	b.Sent += st.Sent
	b.Delivered += st.Delivered
	b.Bits += st.Bits
	a.fill++
	if a.fill == a.span {
		a.fill = 0
	}
}

// mergePairs halves a full bucket list by merging adjacent pairs and
// doubles the span. It is only called when every bucket is full, so
// the merged buckets are full at the doubled span too.
func (a *roundSummaryAcc) mergePairs() {
	half := len(a.buckets) / 2
	for i := 0; i < half; i++ {
		l, r := a.buckets[2*i], a.buckets[2*i+1]
		m := l
		m.ToRound = r.ToRound
		m.Executed += r.Executed
		if r.MaxAwake > m.MaxAwake {
			m.MaxAwake = r.MaxAwake
		}
		m.AwakeSum += r.AwakeSum
		m.Sent += r.Sent
		m.Delivered += r.Delivered
		m.Bits += r.Bits
		a.buckets[i] = m
	}
	a.buckets = a.buckets[:half]
	a.span *= 2
}

// summary returns the accumulated block, or nil if no round was
// observed (an empty graph runs zero rounds).
func (a *roundSummaryAcc) summary() *RoundSummary {
	if a.sum.Executed == 0 {
		return nil
	}
	s := a.sum
	s.Buckets = a.buckets
	return &s
}
