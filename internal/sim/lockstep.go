package sim

import (
	"context"
	"fmt"
	"sync"

	"awakemis/internal/graph"
)

// lockstepEngine is the reference engine: one goroutine per node,
// synchronized in lock-step by channels. It is the seed simulator's
// engine and the goroutine form's native one, kept as the oracle the
// vector engine is tested against and for debugging (a node program is
// an ordinary goroutine with a readable stack).
type lockstepEngine struct{}

// NewLockstepEngine returns the goroutine-per-node engine.
func NewLockstepEngine() Engine { return lockstepEngine{} }

// Name implements Engine.
func (lockstepEngine) Name() string { return "lockstep" }

// Run implements Engine. Step programs are adapted to goroutine form.
func (lockstepEngine) Run(ctx context.Context, g *graph.Graph, prog NodeProgram, cfg Config) (*Metrics, error) {
	switch p := prog.(type) {
	case Program:
		return runLockstep(ctx, g, p, cfg)
	case StepProgram:
		return runLockstep(ctx, g, p.asProgram(), cfg)
	default:
		return nil, fmt.Errorf("sim: lockstep: unsupported program type %T", prog)
	}
}

type eventKind uint8

const (
	evSends eventKind = iota // node finished its send step
	evEnd                    // node finished the round (nextWake set)
)

type nodeEvent struct {
	id   int
	kind eventKind
}

type lsNode struct {
	ctx      *Ctx
	cont     chan struct{}  // engine -> node: your awake round began
	inboxCh  chan []Inbound // engine -> node: receive step payload
	inbox    []Inbound      // staged by engine during routing
	nextWake int64          // written by node before evEnd
	roundNow int64          // written by engine before cont
	err      error          // program panic, converted to error
	halted   bool
}

type lockstepRun struct {
	g      *graph.Graph
	cfg    Config
	states []*lsNode
	events chan nodeEvent
	quit   chan struct{}
	wg     sync.WaitGroup
	m      Metrics
}

// deliver implements ctxBackend: hand the round's sends to the engine
// and block for the inbox.
func (e *lockstepRun) deliver(c *Ctx) []Inbound {
	st := e.states[c.id]
	e.sendEvent(nodeEvent{c.id, evSends})
	select {
	case in := <-st.inboxCh:
		return in
	case <-e.quit:
		panic(quitSignal{})
	}
}

// endRound implements ctxBackend: record the wake time and block until
// the engine starts the node's next awake round.
func (e *lockstepRun) endRound(c *Ctx, next int64) int64 {
	st := e.states[c.id]
	st.nextWake = next
	e.sendEvent(nodeEvent{c.id, evEnd})
	select {
	case <-st.cont:
		return st.roundNow
	case <-e.quit:
		panic(quitSignal{})
	}
}

func (e *lockstepRun) sendEvent(ev nodeEvent) {
	select {
	case e.events <- ev:
	case <-e.quit:
		panic(quitSignal{})
	}
}

func runLockstep(ctx context.Context, g *graph.Graph, prog Program, cfg Config) (*Metrics, error) {
	n := g.N()
	cfg, err := cfg.withDefaults(n)
	if err != nil {
		return nil, err
	}

	e := &lockstepRun{
		g:      g,
		cfg:    cfg,
		states: make([]*lsNode, n),
		events: make(chan nodeEvent, n),
		quit:   make(chan struct{}),
	}
	e.m.AwakePerNode = make([]int64, n)

	q := newWakeQueue()
	for v := 0; v < n; v++ {
		st := &lsNode{
			cont:    make(chan struct{}, 1),
			inboxCh: make(chan []Inbound, 1),
		}
		st.ctx = &Ctx{
			backend: e,
			cfg:     &e.cfg,
			id:      v,
			degree:  g.Degree(v),
			rng:     newNodeRand(cfg.Seed, v),
		}
		e.states[v] = st
		q.add(0, v) // all nodes start awake in round 0
		e.wg.Add(1)
		go e.nodeMain(st, prog)
	}

	err = e.loop(ctx, q)
	close(e.quit)
	e.wg.Wait()
	if err == nil {
		for v, st := range e.states {
			if st.err != nil {
				err = fmt.Errorf("sim: node %d: %w", v, st.err)
				break
			}
		}
	}
	return &e.m, err
}

func (e *lockstepRun) nodeMain(st *lsNode, prog Program) {
	defer e.wg.Done()
	ctx := st.ctx
	// Wait for round 0.
	select {
	case <-st.cont:
		ctx.round = st.roundNow
	case <-e.quit:
		return
	}
	aborted := func() (aborted bool) {
		defer func() {
			switch r := recover().(type) {
			case nil, haltSignal:
			case quitSignal:
				aborted = true
			default:
				st.err = panicError(r)
			}
		}()
		prog(ctx)
		return false
	}()
	if aborted {
		return
	}
	// Graceful halt from whatever point in the round the program stopped.
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(quitSignal); !ok {
					panic(r)
				}
			}
		}()
		if ctx.ph == phaseCompute {
			ctx.ph = phaseDelivered
			e.sendEvent(nodeEvent{ctx.id, evSends})
			select {
			case <-st.inboxCh:
			case <-e.quit:
				panic(quitSignal{})
			}
		}
		st.halted = true
		e.sendEvent(nodeEvent{ctx.id, evEnd})
	}()
}

func (e *lockstepRun) loop(ctx context.Context, q *wakeQueue) error {
	stamp := make([]int64, len(e.states)) // stamp[v] == clock+1 iff v awake now
	cur := make([]int32, len(e.states))   // routing's per-receiver port cursors
	probe := roundProbe{obs: e.cfg.Observer}
	for !q.empty() {
		// Honor cancellation at every round boundary. All node goroutines
		// are parked between rounds here, so returning is safe: the
		// caller closes quit, which unwinds every program.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sim: aborted after round %d: %w", e.m.Rounds, err)
		}
		clock, awake := q.pop()
		if clock > e.cfg.MaxRounds {
			return fmt.Errorf("%w (round %d)", ErrMaxRounds, clock)
		}
		probe.begin(&e.m)
		e.m.ExecutedRounds++
		if clock+1 > e.m.Rounds {
			e.m.Rounds = clock + 1
		}

		// Step 1+2: wake everyone scheduled for this round; collect sends.
		for _, v := range awake {
			st := e.states[v]
			st.roundNow = clock
			e.m.noteAwake(v, clock, e.cfg.Tracer)
			st.cont <- struct{}{}
		}
		if err := e.collect(len(awake), evSends); err != nil {
			return err
		}

		// Routing: deliver only between mutually awake neighbors. The
		// evSends handshake ordered each node's ctx.out writes before
		// this read; the inboxCh send below orders the reset after it.
		e.route(clock, awake, stamp, cur)

		// Step 3: deliver inboxes (sorted by port for determinism).
		for _, v := range awake {
			st := e.states[v]
			st.ctx.out = st.ctx.out[:0]
			in := st.inbox
			st.inbox = nil
			sortInbox(in)
			st.inboxCh <- in
		}
		if err := e.collect(len(awake), evEnd); err != nil {
			return err
		}

		// Reschedule.
		for _, v := range awake {
			st := e.states[v]
			if st.halted || st.err != nil {
				continue
			}
			if st.nextWake <= clock {
				return fmt.Errorf("sim: node %d scheduled wake %d not after round %d", v, st.nextWake, clock)
			}
			q.add(st.nextWake, v)
		}
		probe.end(&e.m, clock, len(awake))
		q.recycle(awake)
	}
	return nil
}

// route delivers one round's staged sends between mutually awake
// nodes and meters the traffic. Senders are processed in ascending node
// order (awake is sorted); receivers' inboxes accumulate in that order
// and are port-sorted before delivery.
//
// Reverse ports (the arrival port an Inbound is tagged with) are
// recovered by a monotone cursor per receiver: because senders arrive
// in ascending order and CSR rows are sorted, each receiver's arrival
// ports are ascending within the round, so a galloping search from the
// receiver's cursor costs O(1) amortized when most neighbors send and
// O(log degree) when few do, with no reverse-port array held in memory.
// stamp[v] == clock+1 marks v awake; the function sets it and resets
// the cursors itself.
func (e *lockstepRun) route(clock int64, awake []int, stamp []int64, cur []int32) {
	m, tracer := &e.m, e.cfg.Tracer
	for _, v := range awake {
		stamp[v] = clock + 1
		cur[v] = 0
	}
	for _, v := range awake {
		for _, om := range e.states[v].ctx.out {
			bits := om.msg.Bits()
			m.MessagesSent++
			m.BitsSent += int64(bits)
			if bits > m.MaxMessageBits {
				m.MaxMessageBits = bits
			}
			w := e.g.Neighbor(v, om.port)
			delivered := stamp[w] == clock+1
			if tracer != nil {
				tracer.Message(clock, v, w, bits, delivered)
			}
			if !delivered {
				continue // receiver asleep: message lost
			}
			port := portFrom(e.g.Neighbors(w), int32(v), int(cur[w]))
			cur[w] = int32(port) // not port+1: v may send on the same port again this round
			in := &e.states[w].inbox
			*in = append(*in, Inbound{Port: port, Msg: om.msg})
			m.MessagesDelivered++
		}
	}
}

// collect waits for exactly count events of the given kind; an evEnd
// arriving during the send phase indicates the node errored before
// delivering, which aborts the run.
func (e *lockstepRun) collect(count int, want eventKind) error {
	for i := 0; i < count; i++ {
		ev := <-e.events
		if ev.kind != want {
			return fmt.Errorf("sim: node %d: protocol violation (program error: %v)",
				ev.id, e.states[ev.id].err)
		}
	}
	return nil
}
