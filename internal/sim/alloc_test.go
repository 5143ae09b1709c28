package sim

// emptyMsg is a zero-size, zero-bit message: broadcasting it exercises
// the full send/route/deliver path without boxing allocations of its
// own, so any allocation the guard sees belongs to the engine.
type emptyMsg struct{}

func (emptyMsg) Bits() int { return 0 }

// allocProbeNode wakes every round forever and broadcasts on all ports,
// keeping every inbox and outbox at steady occupancy.
type allocProbeNode struct{}

func (allocProbeNode) Start(out *Outbox) { out.Broadcast(emptyMsg{}) }

func (allocProbeNode) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	out.Broadcast(emptyMsg{})
	return round + 1, false
}

var allocProbe StepProgram = func(env *NodeEnv) StepNode { return allocProbeNode{} }
