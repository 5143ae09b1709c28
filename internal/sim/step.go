package sim

import (
	"fmt"
	"math/rand"
)

// StepProgram is the state-machine form of a per-node algorithm: a
// factory called once per node at run start. The engine drives the
// returned StepNode round by round with no dedicated goroutine, which
// is what lets it scale to millions of nodes.
type StepProgram func(env *NodeEnv) StepNode

// NodeEnv is a step node's static view of the network, fixed for the
// whole run.
type NodeEnv struct {
	// ID is the node's index (output-recording only; the model is
	// anonymous).
	ID int
	// Degree is the node's number of ports.
	Degree int
	// N is the common upper bound on the network size known to nodes.
	N int
	// Bandwidth is the per-message bit budget B.
	Bandwidth int
	// Rand is the node's private randomness stream, derived from
	// (Config.Seed, ID) alone, so it is the same at every worker and
	// lane count.
	Rand *rand.Rand
}

// StepNode is one node's state machine.
//
// Time works as follows: every node is awake in round 0 (the model's
// initial round). Start stages the node's round-0 sends. Then, for each
// awake round r, the engine transmits the sends staged for r, collects
// what awake neighbors sent this node in r, and calls
// OnWake(r, inbox, out). The node updates its state from the inbox,
// stages into out the messages it will transmit at its next awake
// round, and returns that round's number — or done, which halts the
// node at the end of round r (anything staged is discarded).
//
// Sends for a round are therefore decided at the end of the node's
// previous awake round: round r's sends may depend on everything up to
// round r_prev's inbox but not on round r's.
//
// The inbox slice is only valid during the OnWake call.
type StepNode interface {
	// Start stages the node's sends for round 0.
	Start(out *Outbox)
	// OnWake handles awake round round. nextWake must exceed round
	// unless done is true.
	OnWake(round int64, inbox []Inbound, out *Outbox) (nextWake int64, done bool)
}

// Outbox collects the sends a step node stages for one awake round.
type Outbox struct {
	msgs      []outMsg
	node      int
	degree    int
	bandwidth int
	strict    bool
}

func (o *Outbox) configure(node, degree int, cfg *Config) {
	o.node = node
	o.degree = degree
	o.bandwidth = cfg.Bandwidth
	o.strict = cfg.Strict
}

// Send queues a message on the given port. If the receiving neighbor is
// asleep in the round the message is transmitted, it is lost.
func (o *Outbox) Send(port int, m Message) {
	if port < 0 || port >= o.degree {
		panic(fmt.Sprintf("sim: node %d: invalid port %d (degree %d)", o.node, port, o.degree))
	}
	if o.strict {
		if bits := m.Bits(); bits > o.bandwidth {
			panic(&BandwidthError{Node: o.node, Port: port, Bits: bits, Budget: o.bandwidth})
		}
	}
	if cap(o.msgs) == 0 && o.degree > 1 {
		// Most nodes that send at all address several ports (Broadcast
		// is the common case), so grow straight to degree capacity
		// instead of paying the append doubling churn per node.
		o.msgs = make([]outMsg, 0, o.degree)
	}
	o.msgs = append(o.msgs, outMsg{port, m})
}

// Broadcast sends m on every port.
func (o *Outbox) Broadcast(m Message) {
	for p := 0; p < o.degree; p++ {
		o.Send(p, m)
	}
}

func (o *Outbox) reset() { o.msgs = o.msgs[:0] }
