// Package sim implements the SLEEPING-CONGEST model of the paper
// (§1.3): an anonymous, port-numbered, synchronous message-passing
// network in which every node is either awake or asleep in each round.
//
// Each round has the paper's three steps: (1) awake nodes perform local
// computation, (2) awake nodes send messages to adjacent nodes, and
// (3) awake nodes receive messages sent this round by awake neighbors.
// Messages sent to (or by) a sleeping node are lost. Nodes know the
// current round number whenever they are awake.
//
// # Node programs
//
// An algorithm is a StepProgram, an explicit state machine: the engine
// calls OnWake once per awake round with the round's inbox, and the
// node returns the messages for its next awake round plus when that
// round is. Deeply sequential procedures are written in
// continuation-passing style on a Machine, which is itself a StepNode.
//
// # Engine
//
// RunLanes runs R ≥ 1 lanes of step programs on one graph in a single
// merged pass on the caller's goroutine: struct-of-arrays node state, a
// wake-time bucket queue, and each round's OnWake calls fanned across a
// worker pool in deterministic shards. A plain run (RunStep) is one
// lane. Reports name this engine "stepped".
//
// Config.Observer is the engine's one hook: it receives a RoundStat
// per executed round, and with Config.NodeDetail that stat lists the
// round's awake node ids, the per-node view package trace renders.
//
// # Determinism contract
//
// For a fixed (graph, program, Config.Seed), the engine at every
// worker and lane count produces bit-identical results: the same
// per-node outputs, the same Metrics (including AwakePerNode), and the
// same message streams. This holds because (a) each node owns a
// private RNG stream derived from Config.Seed and its index, (b) a
// node's step depends only on its own state and inbox, and (c) the
// router processes senders in ascending node order and sorts each
// inbox by arrival port. Tests hold every algorithm to SHA-256 digests
// of its Metrics and outputs, frozen from the goroutine-per-node
// lockstep engine that served as the reference until its removal.
//
// The contract covers runs that complete without error. A failing run
// aborts at the first failing round and surfaces the lowest failing
// node index.
//
// The engine skips over rounds in which every node sleeps, so round
// numbers are exact (round complexity is measured faithfully) while
// simulation cost is proportional to the total number of awake
// node-rounds. Awake complexity (§1.4) is metered per node.
package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"awakemis/internal/bitio"
	"awakemis/internal/graph"
)

// Message is a payload sent over an edge in one round. Bits reports the
// exact number of bits the message occupies on the wire; the engine
// enforces the CONGEST bandwidth bound against it.
type Message interface {
	Bits() int
}

// Inbound is a message received by a node, tagged with the local port
// it arrived on.
type Inbound struct {
	Port int
	Msg  Message
}

// Config controls a simulation run. The zero value gives sensible
// defaults: bandwidth 16·⌈log₂N⌉+16 bits, strict CONGEST enforcement
// off, a generous round cutoff, N equal to the actual node count, and
// one worker per CPU.
type Config struct {
	// Seed derives every node's private randomness; identical seeds
	// replay identical executions at every worker and lane count.
	Seed int64
	// N is the common polynomial upper bound on the node count known to
	// every node (the paper's N). Zero means the exact node count.
	N int
	// Bandwidth is the per-message bit budget B = O(log N). Zero means
	// the default 16·⌈log₂N⌉+16.
	Bandwidth int
	// Strict makes any Send whose message exceeds Bandwidth an error.
	Strict bool
	// MaxRounds aborts runs that exceed this round count (safety net
	// against schedule bugs). Zero means 1<<40.
	MaxRounds int64
	// Observer, if non-nil, receives one RoundStat per executed round:
	// the engine's only hook. Without NodeDetail it carries counters
	// alone, so attaching it costs O(1) per round regardless of n.
	// Observer methods are called from the goroutine running the pass
	// only.
	Observer RoundObserver
	// NodeDetail fills RoundStat.Nodes with the lane's awake node ids,
	// the per-node view a trace is built from. It costs O(awake) per
	// round for lanes of a merged pass and nothing for a one-lane run.
	NodeDetail bool
	// Workers sizes the pass's worker pool; zero means one per CPU. It
	// never changes results. All lanes of one pass must agree on it.
	Workers int
}

// withDefaults validates cfg against the node count and fills defaults.
func (cfg Config) withDefaults(n int) (Config, error) {
	if cfg.N == 0 {
		cfg.N = n
	}
	if cfg.N < n {
		return cfg, fmt.Errorf("sim: N=%d below node count %d", cfg.N, n)
	}
	if cfg.Bandwidth == 0 {
		cfg.Bandwidth = DefaultBandwidth(cfg.N)
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 1 << 40
	}
	return cfg, nil
}

// RoundStat is the aggregate of one executed round: counters, plus
// the awake node ids when the lane asked for NodeDetail. The message
// counters are deltas for this round alone; summed over all observed
// rounds they equal the corresponding final Metrics totals exactly
// (the identity is frozen by test across worker counts).
type RoundStat struct {
	// Round is the round number (clock); rounds where every node sleeps
	// are skipped, so consecutive stats may jump.
	Round int64
	// Awake is the number of nodes awake this round.
	Awake int
	// Sent counts messages handed to Send this round.
	Sent int64
	// Delivered counts this round's messages that reached an awake
	// receiver (Sent - Delivered were lost to sleeping nodes).
	Delivered int64
	// Bits is the total wire size of this round's sends.
	Bits int64
	// Elapsed is the wall time the engine spent simulating the round.
	// It is the only nondeterministic field.
	Elapsed time.Duration
	// Nodes lists the lane's awake node ids this round, ascending, when
	// Config.NodeDetail is set (nil otherwise). The engine reuses the
	// storage: it is valid only during the ObserveRound call.
	Nodes []int
}

// RoundObserver receives per-round aggregates as the engine executes.
// ObserveRound fires once per executed round, in round order, after the
// round completed successfully (rounds aborted by an error or
// cancellation are not observed). Implementations should be cheap and
// ideally allocation-free: the hook itself adds no heap allocations,
// and the engine's steady-state allocation guards budget at most one
// allocation per round for the observer's own bookkeeping.
type RoundObserver interface {
	ObserveRound(RoundStat)
}

// roundProbe converts the run's cumulative Metrics counters into
// per-round deltas for a RoundObserver. With a nil observer both calls
// are a single predictable branch, preserving the zero-allocation
// round loop.
type roundProbe struct {
	obs       RoundObserver
	detail    bool  // Config.NodeDetail, with an observer to receive it
	nodes     []int // the lane's awake ids, when a merged pass must split them out
	start     time.Time
	sent      int64
	delivered int64
	bits      int64
}

// begin snapshots the cumulative counters at the top of a round.
func (p *roundProbe) begin(m *Metrics) {
	if p.obs == nil {
		return
	}
	p.sent, p.delivered, p.bits = m.MessagesSent, m.MessagesDelivered, m.BitsSent
	p.nodes = p.nodes[:0]
	p.start = time.Now()
}

// end emits the round's RoundStat once the round has fully completed;
// nodes is the lane's awake id list, handed on under NodeDetail.
func (p *roundProbe) end(m *Metrics, round int64, awake int, nodes []int) {
	if p.obs == nil {
		return
	}
	if !p.detail {
		nodes = nil
	}
	p.obs.ObserveRound(RoundStat{
		Round:     round,
		Awake:     awake,
		Sent:      m.MessagesSent - p.sent,
		Delivered: m.MessagesDelivered - p.delivered,
		Bits:      m.BitsSent - p.bits,
		Elapsed:   time.Since(p.start),
		Nodes:     nodes,
	})
}

// Metrics aggregates the complexity measures of a run.
type Metrics struct {
	// Rounds is the round complexity: 1 + the last round in which any
	// node was awake (rounds are numbered from 0).
	Rounds int64
	// ExecutedRounds counts rounds the engine actually simulated (rounds
	// with at least one awake node); the difference from Rounds is the
	// time all nodes slept through.
	ExecutedRounds int64
	// AwakePerNode[v] is A_v, the number of rounds node v was awake.
	AwakePerNode []int64
	// MaxAwake is the worst-case awake complexity max_v A_v.
	MaxAwake int64
	// TotalAwake is Σ_v A_v (node-averaged awake = TotalAwake / n).
	TotalAwake int64
	// MessagesSent counts messages handed to Send by awake nodes.
	MessagesSent int64
	// MessagesDelivered counts messages that reached an awake receiver.
	MessagesDelivered int64
	// BitsSent is the total size of all sent messages.
	BitsSent int64
	// MaxMessageBits is the largest single message observed.
	MaxMessageBits int
}

// AvgAwake returns the node-averaged awake complexity.
func (m *Metrics) AvgAwake() float64 {
	if len(m.AwakePerNode) == 0 {
		return 0
	}
	return float64(m.TotalAwake) / float64(len(m.AwakePerNode))
}

// noteAwake meters the start of an awake round for node v.
func (m *Metrics) noteAwake(v int) {
	m.AwakePerNode[v]++
	m.TotalAwake++
	if m.AwakePerNode[v] > m.MaxAwake {
		m.MaxAwake = m.AwakePerNode[v]
	}
}

// ErrMaxRounds is returned when a run exceeds Config.MaxRounds.
var ErrMaxRounds = errors.New("sim: exceeded MaxRounds")

// BandwidthError reports a CONGEST violation under Config.Strict.
type BandwidthError struct {
	Node, Port, Bits, Budget int
}

func (e *BandwidthError) Error() string {
	return fmt.Sprintf("sim: node %d port %d sent %d bits, budget %d",
		e.Node, e.Port, e.Bits, e.Budget)
}

// DefaultBandwidth returns the default CONGEST budget for a given N.
func DefaultBandwidth(n int) int {
	if n < 2 {
		n = 2
	}
	return 16*bitio.UintBits(uint64(n)) + 16
}

// outMsg is a staged send: a message queued on a local port.
type outMsg struct {
	port int
	msg  Message
}

// RunStep simulates prog on every node of g under cfg and returns the
// measured complexity metrics. It returns an error if any node program
// panicked, violated the CONGEST bound under Strict, or the run
// exceeded MaxRounds.
func RunStep(g *graph.Graph, prog StepProgram, cfg Config) (*Metrics, error) {
	return RunStepContext(context.Background(), g, prog, cfg)
}

// RunStepContext is RunStep under a context, run as a one-lane
// RunLanes pass: the engine polls ctx at every round boundary and
// aborts once it is cancelled or past its deadline, returning an error
// that wraps ctx.Err(). A nil ctx means context.Background().
func RunStepContext(ctx context.Context, g *graph.Graph, prog StepProgram, cfg Config) (*Metrics, error) {
	ms, err := RunLanes(ctx, g, []StepProgram{prog}, []Config{cfg})
	if ms == nil {
		return nil, err
	}
	return ms[0], err
}

// portFrom returns the index of v in the sorted row nb, searching from
// position from. v must be present at or after from. Galloping keeps
// the cost proportional to the jump actually taken: ~2 comparisons when
// v sits at the cursor (dense traffic), O(log gap) otherwise.
func portFrom(nb []int32, v int32, from int) int {
	lo, step := from, 1
	for lo+step < len(nb) && nb[lo+step] < v {
		lo += step
		step <<= 1
	}
	hi := lo + step
	if hi > len(nb) {
		hi = len(nb)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nb[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sortInbox orders a round's inbox by arrival port (part of the
// determinism contract). Routing appends in
// ascending sender order, which already yields ascending receiver ports
// (port numbering is sorted by neighbor index), so this insertion sort
// is a stable O(len) verification pass in practice — and allocates
// nothing, unlike sort.Slice, keeping it off the steady-state heap.
func sortInbox(in []Inbound) {
	for i := 1; i < len(in); i++ {
		for j := i; j > 0 && in[j].Port < in[j-1].Port; j-- {
			in[j], in[j-1] = in[j-1], in[j]
		}
	}
}

// wakeQueue schedules (round, node) wake-ups: one bucket of node
// indices per distinct wake round, plus a min-heap over the distinct
// rounds. Buckets are sorted at pop time, so the execution order within
// a round is ascending node index regardless of insertion order.
type wakeQueue struct {
	buckets map[int64][]int
	heap    []int64 // min-heap of distinct rounds with non-empty buckets
	free    [][]int // recycled bucket storage
}

func newWakeQueue() *wakeQueue {
	return &wakeQueue{buckets: make(map[int64][]int)}
}

func (q *wakeQueue) empty() bool { return len(q.heap) == 0 }

// add schedules node v to wake in round r.
func (q *wakeQueue) add(r int64, v int) {
	b, ok := q.buckets[r]
	if !ok {
		if n := len(q.free); n > 0 {
			b = q.free[n-1]
			q.free = q.free[:n-1]
		}
		q.pushRound(r)
	}
	q.buckets[r] = append(b, v)
}

// pop removes and returns the earliest scheduled round and its nodes in
// ascending index order. The slice is owned by the queue; return it
// with recycle once processed.
func (q *wakeQueue) pop() (int64, []int) {
	r := q.popRound()
	b := q.buckets[r]
	delete(q.buckets, r)
	slices.Sort(b)
	return r, b
}

// recycle returns a bucket slice obtained from pop for reuse.
func (q *wakeQueue) recycle(b []int) { q.free = append(q.free, b[:0]) }

func (q *wakeQueue) pushRound(r int64) {
	q.heap = append(q.heap, r)
	i := len(q.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.heap[p] <= q.heap[i] {
			break
		}
		q.heap[p], q.heap[i] = q.heap[i], q.heap[p]
		i = p
	}
}

func (q *wakeQueue) popRound() int64 {
	h := q.heap
	r := h[0]
	last := len(h) - 1
	h[0] = h[last]
	q.heap = h[:last]
	h = q.heap
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if rr < len(h) && h[rr] < h[small] {
			small = rr
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return r
}
