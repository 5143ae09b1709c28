package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"awakemis/internal/graph"
	"awakemis/internal/rng"
)

// RunLanes executes R = len(progs) ≥ 1 independent replications
// ("lanes") of step programs on one shared graph in a single merged
// pass — one wake queue, one adjacency traversal per round, one worker
// pool — and returns each lane's Metrics. Lane t runs progs[t] under
// cfgs[t]; lanes differ only in seed, program state, observer and
// node detail, which is exactly the shape of a study cell's trial axis.
// A plain run is one lane (RunStep).
//
// The lanes must agree on N, Bandwidth, Strict, MaxRounds and Workers
// once defaults are filled; these are checked, along with the packed-id
// range, before any program is called. The round loop runs on the
// caller's goroutine, with node steps fanned out to the worker pool;
// every lane's Observer is called from the loop, lane by lane within
// each merged round. RunLanes polls ctx at every round boundary and
// aborts once it is cancelled or past its deadline, returning an error
// that wraps ctx.Err(). A nil ctx means context.Background().
//
// Each lane's per-node RNG streams, routing order, inbox ordering and
// Metrics are bit-identical to a one-lane run of the same (graph,
// program, Config): the per-lane subsequence of the merged pass is
// exactly the one-lane pass. A failure in any lane aborts the whole
// pass with the deterministic lowest-packed-index error; the returned
// Metrics then hold how far each lane got (nil if the pass never
// started).
func RunLanes(ctx context.Context, g *graph.Graph, progs []StepProgram, cfgs []Config) ([]*Metrics, error) {
	if len(progs) == 0 || len(progs) != len(cfgs) {
		return nil, fmt.Errorf("sim: RunLanes: %d programs for %d configs (need at least one lane)", len(progs), len(cfgs))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	filled := make([]Config, len(cfgs))
	for t := range cfgs {
		cfg, err := cfgs[t].withDefaults(g.N())
		if err != nil {
			return nil, err
		}
		filled[t] = cfg
		if base := filled[0]; cfg.N != base.N || cfg.Bandwidth != base.Bandwidth || cfg.Strict != base.Strict ||
			cfg.MaxRounds != base.MaxRounds || cfg.Workers != base.Workers {
			return nil, fmt.Errorf("sim: lane %d config diverges from lane 0 (N/Bandwidth/Strict/MaxRounds/Workers must agree)", t)
		}
	}
	if int64(g.N())*int64(len(progs)) > math.MaxInt32 {
		// Routing scratch holds packed ids as int32.
		return nil, fmt.Errorf("sim: %d nodes x %d lanes exceeds the packed-id range", g.N(), len(progs))
	}
	workers := filled[0].Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	vs, err := newVecState(g, progs, filled, workers)
	if err != nil {
		return vs.ms, err
	}
	defer vs.close()
	for !vs.q.empty() {
		// Honor cancellation at every round boundary: the nodes' inline
		// state is simply dropped, so an abort needs no unwinding.
		if err := ctx.Err(); err != nil {
			return vs.ms, fmt.Errorf("sim: aborted after round %d: %w", vs.maxRoundSeen(), err)
		}
		if err := vs.round(workers); err != nil {
			return vs.ms, err
		}
	}
	return vs.ms, nil
}

// vecState is the merged run's struct-of-arrays state, widened by a
// trial lane: every per-node array is indexed by the packed id
// p = v·R + t (node-major, lane-minor), so one sorted awake list
// interleaves all lanes and routing walks each CSR row once per sender
// regardless of how many lanes that sender is awake in. The galloping
// reverse-port cursors stay per-receiver (size n, shared by all lanes):
// arrival ports depend only on the (v, w) edge, and the packed order
// keeps senders ascending in v across lanes, so the one-lane cursor
// invariant carries over unchanged. The round loop is allocation-free
// at steady state (guarded in alloc tests).
type vecState struct {
	g    *graph.Graph
	R    int
	cfgs []Config
	ms   []*Metrics // per lane
	q    *wakeQueue // packed ids

	node  []StepNode // packed; nil once halted
	out   []Outbox   // packed
	next  []int64    // packed; haltedWake once done
	stamp []int64    // packed routing scratch: stamp[p] == clock+1 iff (v,t) awake
	cur   []int32    // per-RECEIVER port cursors, size n (shared across lanes)
	vOf   []int32    // packed -> node (p/R, precomputed: the hot loops avoid dividing by a runtime R)
	tOf   []int32    // packed -> lane (p%R)

	// Flat CSR inboxes. A merged round can hold n·R inboxes, so
	// slice-per-node buffers would cost 2·n·R slice headers of
	// GC-scanned memory and a grow-from-nil append per delivery. Instead route counts each awake receiver's deliveries
	// (inCount), carves per-receiver regions out of one flat buffer
	// with a prefix sum over the awake list (inOff), and fills the
	// regions in a second pass in ascending sender order. The fill advances inOff[p] to the region's end, so a
	// receiver's inbox is inBuf[par][inOff[p]-inCount[p]:inOff[p]].
	// Two buffers keyed by round parity give one round of reuse slack for programs that hold the inbox slightly
	// beyond the OnWake contract.
	inCount []int32      // packed: deliveries to (v,t) this round
	inOff   []int32      // packed: region start, then fill cursor, then region end
	inBuf   [2][]Inbound // flat delivery storage, keyed by round parity

	probes []roundProbe // per lane
	// splitNodes is set when R > 1 and some lane wants NodeDetail: the
	// metering loop then splits the packed awake list into per-lane id
	// lists (a one-lane run hands its popped bucket over as is).
	splitNodes bool

	// Per-round lane bookkeeping scratch (reused, no allocation):
	// laneMark[t] == clock+1 iff lane t has awake nodes this round,
	// laneAwake[t] counts them, active lists the marked lanes.
	laneMark  []int64
	laneAwake []int
	active    []int

	// Round scope published to workers before shards dispatch.
	awake []int
	clock int64
	par   int

	jobs chan [2]int
	wg   sync.WaitGroup

	failMu   sync.Mutex
	failPack int
	failErr  error
}

// newVecState builds the merged node state — each lane's machines
// constructed in ascending node order — and
// stages every (node, lane)'s round-0 sends.
func newVecState(g *graph.Graph, progs []StepProgram, cfgs []Config, workers int) (*vecState, error) {
	n, R := g.N(), len(progs)
	vs := &vecState{
		g:         g,
		R:         R,
		cfgs:      cfgs,
		ms:        make([]*Metrics, R),
		q:         newWakeQueue(),
		node:      make([]StepNode, n*R),
		out:       make([]Outbox, n*R),
		next:      make([]int64, n*R),
		stamp:     make([]int64, n*R),
		cur:       make([]int32, n),
		vOf:       make([]int32, n*R),
		tOf:       make([]int32, n*R),
		inCount:   make([]int32, n*R),
		inOff:     make([]int32, n*R),
		probes:    make([]roundProbe, R),
		laneMark:  make([]int64, R),
		laneAwake: make([]int, R),
		active:    make([]int, 0, R),
	}

	// Environments, RNG sources, and the RNG states themselves are
	// slab-allocated: three arrays for the whole merged run instead of
	// n·R small heap objects (rand.New inlines, so the dereferenced
	// copy into the slab never escapes).
	envs := make([]NodeEnv, n*R)
	srcs := make([]nodeSource, n*R)
	rnds := make([]rand.Rand, n*R)
	for t := 0; t < R; t++ {
		vs.ms[t] = &Metrics{AwakePerNode: make([]int64, n)}
		vs.probes[t] = roundProbe{obs: cfgs[t].Observer, detail: cfgs[t].NodeDetail && cfgs[t].Observer != nil}
		vs.splitNodes = vs.splitNodes || (R > 1 && vs.probes[t].detail)
	}
	// Construction runs in packed order — node-major, lane-minor — so
	// the slab writes are sequential. Each lane still sees its machines
	// built in ascending node order.
	for v := 0; v < n; v++ {
		deg := g.Degree(v)
		for t := 0; t < R; t++ {
			p := v*R + t
			vs.vOf[p], vs.tOf[p] = int32(v), int32(t)
			vs.out[p].configure(v, deg, &vs.cfgs[t])
			srcs[p].state = uint64(rng.Stream(cfgs[t].Seed, int64(v)))
			rnds[p] = *rand.New(&srcs[p])
			envs[p] = NodeEnv{
				ID:        v,
				Degree:    deg,
				N:         cfgs[t].N,
				Bandwidth: cfgs[t].Bandwidth,
				Rand:      &rnds[p],
			}
			if err := vs.startNode(p, progs[t], &envs[p]); err != nil {
				return vs, fmt.Errorf("sim: node %d: %w", v, err)
			}
			vs.q.add(0, p)
		}
	}

	if workers > 1 {
		vs.jobs = make(chan [2]int, workers)
		for i := 0; i < workers; i++ {
			go vs.worker()
		}
	}
	return vs, nil
}

func (vs *vecState) close() {
	if vs.jobs != nil {
		close(vs.jobs)
	}
}

// maxRoundSeen reports the furthest round any lane reached (error
// messages only).
func (vs *vecState) maxRoundSeen() int64 {
	var r int64
	for _, m := range vs.ms {
		if m.Rounds > r {
			r = m.Rounds
		}
	}
	return r
}

// round executes one merged round: pop the packed awake set, meter
// each active lane, route every lane's staged sends in one pass, fan
// the step calls across the pool, and reschedule. The per-lane
// subsequence of everything that happens here is bit-identical to the
// one-lane round. Factored out so the
// allocation-regression tests can drive it directly.
func (vs *vecState) round(workers int) error {
	clock, awake := vs.q.pop()
	if clock > vs.cfgs[0].MaxRounds {
		return fmt.Errorf("%w (round %d)", ErrMaxRounds, clock)
	}

	// Detect the lanes with awake nodes this round and count them; only
	// those lanes observe the round (a lane whose nodes all sleep now
	// skips it, exactly as its one-lane run would).
	R := vs.R
	vs.active = vs.active[:0]
	for _, p := range awake {
		t := int(vs.tOf[p])
		if vs.laneMark[t] != clock+1 {
			vs.laneMark[t] = clock + 1
			vs.laneAwake[t] = 0
			vs.active = append(vs.active, t)
		}
		vs.laneAwake[t]++
	}
	for _, t := range vs.active {
		vs.probes[t].begin(vs.ms[t])
		vs.ms[t].ExecutedRounds++
		if clock+1 > vs.ms[t].Rounds {
			vs.ms[t].Rounds = clock + 1
		}
	}
	split := vs.splitNodes
	for _, p := range awake {
		t, v := vs.tOf[p], int(vs.vOf[p])
		vs.ms[t].noteAwake(v)
		if split && vs.probes[t].detail {
			vs.probes[t].nodes = append(vs.probes[t].nodes, v)
		}
	}

	vs.clock = clock
	vs.par = int(clock & 1)
	vs.route(clock, awake)

	vs.stepAll(awake, workers)

	if err := vs.failErr; err != nil {
		return fmt.Errorf("sim: node %d: %w", vs.failPack/R, err)
	}

	for _, p := range awake {
		next := vs.next[p]
		if next == haltedWake {
			continue
		}
		if next <= clock {
			return fmt.Errorf("sim: node %d scheduled wake %d not after round %d", p/R, next, clock)
		}
		vs.q.add(next, p)
	}
	for _, t := range vs.active {
		nodes := awake // one lane: the packed ids are the node ids
		if R > 1 {
			nodes = vs.probes[t].nodes
		}
		vs.probes[t].end(vs.ms[t], clock, vs.laneAwake[t], nodes)
	}
	vs.q.recycle(awake)
	return nil
}

// route delivers one merged round's staged sends. Senders run in
// packed order — ascending node, lane-minor — so each receiver's
// arrival ports ascend across the whole merged round regardless of
// lane, and the per-receiver galloping cursor works unchanged
// on n entries shared by all R lanes. Metering and delivery are
// per-lane: a message sent in lane t reaches (w, t) only if that
// lane's copy of w is awake.
//
// Delivery is a counting sort into the round's flat buffer: pass one
// meters every send in ascending sender order, then staging order, and
// counts each receiver's deliveries; a prefix sum over the awake list
// carves the buffer into per-receiver regions; pass two resolves
// arrival ports with the shared cursors and fills the regions in the
// same sender order. The buffer grows at most once per round, exactly
// to the delivered total — no per-delivery append, no doubling churn,
// no per-inbox backing arrays.
func (vs *vecState) route(clock int64, awake []int) {
	R := vs.R
	for _, p := range awake {
		vs.stamp[p] = clock + 1
		vs.cur[vs.vOf[p]] = 0
		vs.inCount[p] = 0
	}
	for _, p := range awake {
		v, t := int(vs.vOf[p]), int(vs.tOf[p])
		m := vs.ms[t]
		for _, om := range vs.out[p].msgs {
			bits := om.msg.Bits()
			m.MessagesSent++
			m.BitsSent += int64(bits)
			if bits > m.MaxMessageBits {
				m.MaxMessageBits = bits
			}
			w := vs.g.Neighbor(v, om.port)
			wp := w*R + t
			if vs.stamp[wp] != clock+1 {
				continue
			}
			vs.inCount[wp]++
			m.MessagesDelivered++
		}
	}
	total := 0
	for _, p := range awake {
		vs.inOff[p] = int32(total)
		total += int(vs.inCount[p])
	}
	buf := vs.inBuf[vs.par]
	if cap(buf) < total {
		buf = make([]Inbound, total)
	}
	buf = buf[:total]
	vs.inBuf[vs.par] = buf
	for _, p := range awake {
		v, t := int(vs.vOf[p]), int(vs.tOf[p])
		for _, om := range vs.out[p].msgs {
			w := vs.g.Neighbor(v, om.port)
			wp := w*R + t
			if vs.stamp[wp] != clock+1 {
				continue
			}
			port := portFrom(vs.g.Neighbors(w), int32(v), int(vs.cur[w]))
			vs.cur[w] = int32(port) // not port+1: v may send on the same port again
			buf[vs.inOff[wp]] = Inbound{Port: port, Msg: om.msg}
			vs.inOff[wp]++
		}
	}
}

// stepAll fans OnWake over the packed awake list in contiguous
// shards; a shard boundary may split one node's lanes, which is fine —
// every packed entry is an independent state machine.
func (vs *vecState) stepAll(awake []int, workers int) {
	const minParallel = 128
	if vs.jobs == nil || len(awake) < minParallel {
		vs.stepRange(awake)
		return
	}
	vs.awake = awake
	chunk := (len(awake) + workers - 1) / workers
	for lo := 0; lo < len(awake); lo += chunk {
		hi := lo + chunk
		if hi > len(awake) {
			hi = len(awake)
		}
		vs.wg.Add(1)
		vs.jobs <- [2]int{lo, hi}
	}
	vs.wg.Wait()
}

func (vs *vecState) worker() {
	for span := range vs.jobs {
		vs.stepRange(vs.awake[span[0]:span[1]])
		vs.wg.Done()
	}
}

func (vs *vecState) stepRange(awake []int) {
	for _, p := range awake {
		vs.stepPacked(p)
	}
}

// fail records a packed-entry failure, keeping the lowest packed
// index so the surfaced error is deterministic at every worker count.
func (vs *vecState) fail(p int, err error) {
	vs.failMu.Lock()
	if vs.failErr == nil || p < vs.failPack {
		vs.failPack, vs.failErr = p, err
	}
	vs.failMu.Unlock()
}

func (vs *vecState) stepPacked(p int) {
	defer func() {
		if r := recover(); r != nil {
			vs.fail(p, panicError(r))
		}
	}()
	// The inbox is borrowed for the OnWake call. The region's capacity
	// is clamped so a program appending to its inbox cannot clobber a
	// neighbor's region.
	end := vs.inOff[p]
	start := end - vs.inCount[p]
	in := vs.inBuf[vs.par][start:end:end]
	sortInbox(in)
	out := &vs.out[p]
	out.reset()
	next, done := vs.node[p].OnWake(vs.clock, in, out)
	if done {
		vs.node[p] = nil     // release the machine; staged sends are dropped
		vs.out[p].msgs = nil // and their storage: merged runs hold n·R outboxes live
		vs.next[p] = haltedWake
		return
	}
	vs.next[p] = next
}

func (vs *vecState) startNode(p int, sp StepProgram, env *NodeEnv) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError(r)
		}
	}()
	vs.node[p] = sp(env)
	vs.node[p].Start(&vs.out[p])
	return nil
}

// haltedWake marks a node that returned done from its last OnWake.
const haltedWake = math.MinInt64

// panicError converts a recovered node-program panic into the error
// the run reports.
func panicError(r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("program panic: %w", err)
	}
	return fmt.Errorf("program panic: %v", r)
}
