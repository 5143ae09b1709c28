package sim

import (
	"testing"

	"awakemis/internal/graph"
)

// pingNode is a minimal Machine-driven StepNode: broadcast a bit in
// rounds 0 and 2, count what arrives, halt.
type pingNode struct {
	Machine
	got int
	out *[]int
	id  int
}

func (n *pingNode) Start(out *Outbox) {
	n.Begin(out, func() {
		n.Yield(0, func(o *Outbox) { o.Broadcast(floodBit{}) }, func(in []Inbound) {
			n.got += len(in)
			n.Yield(2, func(o *Outbox) { o.Broadcast(floodBit{}) }, func(in []Inbound) {
				n.got += len(in)
				(*n.out)[n.id] = n.got
			})
		})
	})
}

type floodBit struct{}

func (floodBit) Bits() int { return 1 }

// TestMachineDrivesStepNode checks the CPS trampoline end to end at
// two worker counts: wakes in exactly the yielded rounds, sends staged by
// the yield's send closure, halt on continuation return.
func TestMachineDrivesStepNode(t *testing.T) {
	g := graph.Cycle(8)
	for ename, base := range map[string]Config{
		"stepped-1": {Workers: 1},
		"stepped-2": {Workers: 2},
	} {
		got := make([]int, g.N())
		prog := StepProgram(func(env *NodeEnv) StepNode {
			return &pingNode{out: &got, id: env.ID}
		})
		m, err := RunStep(g, prog, Config{Seed: 1, Workers: base.Workers})
		if err != nil {
			t.Fatalf("%s: %v", ename, err)
		}
		for v, c := range got {
			if c != 4 { // 2 neighbors × 2 attended rounds
				t.Fatalf("%s: node %d received %d messages, want 4", ename, v, c)
			}
		}
		if m.Rounds != 3 || m.MaxAwake != 2 {
			t.Fatalf("%s: rounds=%d maxAwake=%d, want 3/2", ename, m.Rounds, m.MaxAwake)
		}
	}
}

// TestMachineNonTailYieldPanics: a second Yield without an intervening
// wake is a CPS conversion bug and must be caught loudly.
func TestMachineNonTailYieldPanics(t *testing.T) {
	var m Machine
	var out Outbox
	defer func() {
		if recover() == nil {
			t.Fatal("double Yield did not panic")
		}
	}()
	m.Begin(&out, func() {
		m.Yield(0, nil, func([]Inbound) {})
		m.Yield(1, nil, func([]Inbound) {})
	})
}

// TestMachineBeginMustScheduleRoundZero: every node is awake in round
// 0, so a prologue yielding a later round is a bug.
func TestMachineBeginMustScheduleRoundZero(t *testing.T) {
	var m Machine
	var out Outbox
	defer func() {
		if recover() == nil {
			t.Fatal("Begin yielding round 3 did not panic")
		}
	}()
	m.Begin(&out, func() {
		m.Yield(3, nil, func([]Inbound) {})
	})
}
