package sim

import (
	"fmt"
	"math/rand"
)

// Program is the goroutine form of a per-node algorithm. It runs on its
// own goroutine and drives rounds through the Ctx. Returning from the
// program halts the node (its awake-round counter stops).
type Program func(ctx *Ctx)

func (Program) isNodeProgram() {}

type phase uint8

const (
	phaseCompute   phase = iota // in step (1)/(2): may Send, must Deliver
	phaseDelivered              // after Deliver: must end the round
)

type haltSignal struct{}
type quitSignal struct{}

// ctxBackend is the engine-side half of a Ctx: how staged sends are
// transmitted and how the node blocks between awake rounds. The
// lockstep engine implements it.
type ctxBackend interface {
	// deliver transmits the sends staged in c.out for the current round
	// and blocks until the round's inbox is available. It may panic with
	// quitSignal when the run is aborting.
	deliver(c *Ctx) []Inbound
	// endRound schedules the node to wake in round next and blocks until
	// that round begins, returning its number (always next). It may
	// panic with quitSignal when the run is aborting.
	endRound(c *Ctx, next int64) int64
}

// Ctx is a node's handle to the simulation in goroutine form. All
// methods must be called from the node's own program goroutine.
type Ctx struct {
	backend ctxBackend
	cfg     *Config
	id      int
	degree  int
	rng     *rand.Rand
	ph      phase
	round   int64
	out     []outMsg // sends staged for the current round
	extra   any      // per-node scratch usable by composed sub-algorithms
}

// Node returns the node's index. The model is anonymous: algorithms may
// use the index to record their output but must not base decisions on
// it (tests shuffle indices to keep implementations honest).
func (c *Ctx) Node() int { return c.id }

// N returns the common upper bound on the network size known to nodes.
func (c *Ctx) N() int { return c.cfg.N }

// Bandwidth returns the per-message bit budget B.
func (c *Ctx) Bandwidth() int { return c.cfg.Bandwidth }

// Degree returns the node's number of ports.
func (c *Ctx) Degree() int { return c.degree }

// Round returns the current round number.
func (c *Ctx) Round() int64 { return c.round }

// Rand returns the node's private randomness source.
func (c *Ctx) Rand() *rand.Rand { return c.rng }

// Extra returns mutable per-node scratch shared between composed
// sub-algorithms running on the same node.
func (c *Ctx) Extra() any { return c.extra }

// SetExtra stores per-node scratch.
func (c *Ctx) SetExtra(v any) { c.extra = v }

// Send queues a message on the given port for this round. It must be
// called before Deliver. If the receiving neighbor is asleep this round,
// the message is lost.
func (c *Ctx) Send(port int, m Message) {
	if c.ph != phaseCompute {
		panic("sim: Send after Deliver in the same round")
	}
	if port < 0 || port >= c.degree {
		panic(fmt.Sprintf("sim: node %d: invalid port %d (degree %d)", c.id, port, c.degree))
	}
	if c.cfg.Strict {
		if bits := m.Bits(); bits > c.cfg.Bandwidth {
			panic(&BandwidthError{Node: c.id, Port: port, Bits: bits, Budget: c.cfg.Bandwidth})
		}
	}
	c.out = append(c.out, outMsg{port, m})
}

// Broadcast sends m on every port.
func (c *Ctx) Broadcast(m Message) {
	for p := 0; p < c.degree; p++ {
		c.Send(p, m)
	}
}

// Deliver completes the send step of the current round and returns the
// messages received this round, sorted by arrival port. It must be
// called exactly once per awake round (ending the round calls it
// implicitly, discarding the inbox).
func (c *Ctx) Deliver() []Inbound {
	if c.ph != phaseCompute {
		panic("sim: Deliver called twice in one round")
	}
	c.ph = phaseDelivered
	return c.backend.deliver(c)
}

// Advance ends the current round with the node staying awake in the
// next round.
func (c *Ctx) Advance() { c.endRound(c.round + 1) }

// Sleep ends the current round and sleeps for k full rounds, waking in
// round Round()+k+1. Sleep(0) is equivalent to Advance.
func (c *Ctx) Sleep(k int64) {
	if k < 0 {
		panic("sim: negative sleep")
	}
	c.endRound(c.round + 1 + k)
}

// SleepUntil ends the current round and wakes the node in round r.
func (c *Ctx) SleepUntil(r int64) {
	if r <= c.round {
		panic(fmt.Sprintf("sim: SleepUntil(%d) not after current round %d", r, c.round))
	}
	c.endRound(r)
}

// Halt terminates the node's program immediately.
func (c *Ctx) Halt() { panic(haltSignal{}) }

func (c *Ctx) endRound(next int64) {
	if c.ph == phaseCompute {
		_ = c.Deliver() // complete the round's receive step; discard inbox
	}
	c.round = c.backend.endRound(c, next)
	c.ph = phaseCompute
}
