package sim

// Machine drives a continuation-passing node procedure as a native
// StepNode: no goroutine, no channels, just a registered receive
// continuation per awake round. It exists so that deeply sequential
// algorithms (the LDT tree procedures, Awake-MIS's phase loop) can be
// CPS-converted once and then run on the vector engine's inline hot
// path.
//
// A procedure is ordinary Go code whose wake points are expressed as
// Yield calls: Yield(r, send, recv) declares that the node's next awake
// round is r, stages r's messages immediately via send (we are at the
// end of the node's previous awake round — the same information horizon
// the StepNode contract gives every native port), and registers recv to
// handle round r's inbox. When recv runs it either Yields again
// (directly or through any chain of nested calls) or returns without
// yielding, which halts the node.
//
// Two rules keep a CPS procedure faithful to the straight-line code it
// encodes:
//
//  1. Yield must be in tail position — no code may run after it in the
//     continuation, because that code belongs after the next wake.
//     Machine panics on a second Yield without an intervening wake,
//     which catches most violations.
//  2. The inbox slice passed to recv is borrowed: consume it inside the
//     continuation, never retain it across a Yield.
//
// Embed a Machine in a StepNode and implement Start as
// m.Begin(out, program); Machine itself provides OnWake.
type Machine struct {
	out    *Outbox
	next   int64
	staged bool
	recv   func(in []Inbound)
}

// Yield schedules the node's next awake round r: send (if non-nil)
// stages round r's messages into the node's outbox now, and recv is
// invoked with round r's inbox when it arrives. Inside Begin, r must be
// 0 (every node is awake in the model's initial round); afterwards r
// must exceed the current round, which the engine enforces.
func (m *Machine) Yield(r int64, send func(out *Outbox), recv func(in []Inbound)) {
	if m.out == nil {
		panic("sim: Machine.Yield outside Begin/OnWake")
	}
	if m.staged {
		panic("sim: Machine.Yield twice without an intervening wake (non-tail Yield?)")
	}
	m.next = r
	m.staged = true
	m.recv = recv
	if send != nil {
		send(m.out)
	}
}

// Begin runs the procedure's prologue during StepNode.Start: program
// executes until its first Yield — which must schedule round 0 — or to
// completion for a node with nothing to do.
func (m *Machine) Begin(out *Outbox, program func()) {
	m.out = out
	m.staged = false
	program()
	m.out = nil
	if m.staged && m.next != 0 {
		panic("sim: Machine.Begin must Yield round 0 (all nodes are awake in round 0)")
	}
}

// OnWake implements StepNode: it hands the round's inbox to the
// registered continuation and reports the next wake the continuation
// staged, or done if it returned without yielding.
func (m *Machine) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	recv := m.recv
	if recv == nil {
		return 0, true
	}
	m.out = out
	m.staged = false
	m.recv = nil
	recv(inbox)
	m.out = nil
	if !m.staged {
		return 0, true
	}
	return m.next, false
}
