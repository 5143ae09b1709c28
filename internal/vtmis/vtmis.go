// Package vtmis implements Algorithm VT-MIS (§5.3, Lemma 10): the
// awake-efficient distributed implementation of sequential greedy MIS.
// Given unique IDs in [1, I], the algorithm spans I rounds; a node with
// ID k is awake only in the rounds of its virtual-binary-tree
// communication set S_k([1, I]) ∪ {k} — O(log I) rounds — yet computes
// the lexicographically first MIS with respect to the ID order, because
// Observation 5 guarantees every ordered pair of neighbors shares an
// awake round between their two IDs.
package vtmis

import (
	"fmt"

	"awakemis/internal/graph"
	"awakemis/internal/misproto"
	"awakemis/internal/sim"
	"awakemis/internal/vtree"
)

// RunSubStep executes VT-MIS as a sub-procedure of a sim.Machine-driven
// StepNode (LDT-MIS's final window) over algorithm rounds
// r ∈ [1, idBound] mapped to simulator rounds base+r-1.
//
// Contract: call it at the end of an awake round strictly before base
// (inside a Machine continuation); k runs inside the final awake
// round's receive continuation, and must end that round by yielding or
// returning.
//
// id is the node's unique ID in [1, idBound]; state is read and
// updated in place; ports lists the ports on which participating
// neighbors are reachable (every participant must use a port list that
// includes all participating neighbors).
func RunSubStep(m *sim.Machine, base int64, id, idBound int, state *misproto.State, ports []int, k func()) {
	rounds := vtree.AwakeRounds(id, idBound)
	var attend func(idx int)
	attend = func(idx int) {
		if idx >= len(rounds) || *state == misproto.NotInMIS {
			if idx == 0 {
				// The node never woke (possible only for an already-decided
				// NotInMIS node); park it at base so the caller's exit
				// contract ("in an awake round") holds.
				m.Yield(base, nil, func([]sim.Inbound) { k() })
				return
			}
			k()
			return
		}
		r := rounds[idx]
		m.Yield(base+int64(r)-1, func(out *sim.Outbox) {
			for _, p := range ports {
				out.Send(p, misproto.StateMsg{State: *state})
			}
		}, func(in []sim.Inbound) {
			if *state == misproto.Undecided {
				for _, msg := range in {
					if sm, ok := msg.Msg.(misproto.StateMsg); ok && sm.State == misproto.InMIS {
						*state = misproto.NotInMIS
						break
					}
				}
			}
			if r == id && *state == misproto.Undecided {
				*state = misproto.InMIS
			}
			attend(idx + 1)
		})
	}
	attend(0)
}

// Result collects the standalone algorithm's output.
type Result struct {
	InMIS []bool
}

// stepNode is one node of standalone VT-MIS (all nodes participate on
// all ports, rounds 1..idBound after the model's initial all-awake
// round 0): the node attends exactly the rounds of its communication
// set S_id([1,I]) ∪ {id}, and each attended round's broadcast is staged
// at the previous one (the state it announces can only have changed
// during attended rounds).
type stepNode struct {
	res    *Result
	node   int
	id     int
	state  misproto.State
	rounds []int // vtree.AwakeRounds(id, idBound); sim round r-1+base, base=1
	idx    int
}

// StepProgram returns the standalone per-node program.
func StepProgram(res *Result, ids []int, idBound int) sim.StepProgram {
	return func(env *sim.NodeEnv) sim.StepNode {
		return &stepNode{
			res:    res,
			node:   env.ID,
			id:     ids[env.ID],
			rounds: vtree.AwakeRounds(ids[env.ID], idBound),
		}
	}
}

func (n *stepNode) Start(out *sim.Outbox) {
	// Round 0 (the model's initial all-awake round) sends nothing; the
	// first communication-set round is staged from OnWake(0).
}

func (n *stepNode) OnWake(round int64, inbox []sim.Inbound, out *sim.Outbox) (int64, bool) {
	if round > 0 {
		// An attended communication round r = rounds[idx].
		r := n.rounds[n.idx]
		if n.state == misproto.Undecided {
			for _, m := range inbox {
				if sm, ok := m.Msg.(misproto.StateMsg); ok && sm.State == misproto.InMIS {
					n.state = misproto.NotInMIS
					break
				}
			}
		}
		if r == n.id && n.state == misproto.Undecided {
			n.state = misproto.InMIS
		}
		n.idx++
		if n.state == misproto.NotInMIS || n.idx == len(n.rounds) {
			n.res.InMIS[n.node] = n.state == misproto.InMIS
			return 0, true
		}
	}
	out.Broadcast(misproto.StateMsg{State: n.state})
	return int64(n.rounds[n.idx]), false // base 1: round r is sim round r
}

// Prepare checks the IDs — unique, in [1, idBound] — and returns
// standalone VT-MIS's step program for g and the Result it fills as
// the run completes. All nodes participate on all ports. Round 0 is the
// model's initial all-awake round; the algorithm occupies rounds
// 1..idBound.
func Prepare(g *graph.Graph, ids []int, idBound int) (sim.StepProgram, *Result, error) {
	if err := CheckIDs(g.N(), ids, idBound); err != nil {
		return nil, nil, err
	}
	res := &Result{InMIS: make([]bool, g.N())}
	return StepProgram(res, ids, idBound), res, nil
}

// CheckIDs validates that ids are unique and within [1, idBound].
func CheckIDs(n int, ids []int, idBound int) error {
	if len(ids) != n {
		return fmt.Errorf("vtmis: %d ids for %d nodes", len(ids), n)
	}
	seen := make(map[int]bool, n)
	for v, id := range ids {
		if id < 1 || id > idBound {
			return fmt.Errorf("vtmis: node %d id %d outside [1,%d]", v, id, idBound)
		}
		if seen[id] {
			return fmt.Errorf("vtmis: duplicate id %d", id)
		}
		seen[id] = true
	}
	return nil
}
