// Package naive implements the naive distributed sequential greedy MIS
// described in §5.3: given unique IDs in [1, I], the algorithm runs for
// I rounds; in round r every (still participating) node is awake and
// broadcasts its state, and the node with ID r joins the MIS unless a
// neighbor already has. Its awake complexity is O(I) — the baseline
// whose exponential improvement VT-MIS demonstrates.
package naive

import (
	"fmt"

	"awakemis/internal/graph"
	"awakemis/internal/misproto"
	"awakemis/internal/sim"
)

// Result collects the algorithm's output.
type Result struct {
	InMIS []bool
}

// stepNode is one node of the naive greedy: algorithm round r is
// simulator round r-1, and the broadcast for round r+1 is staged while
// processing round r's inbox. Every node stays awake for all I rounds
// (that is the point of the baseline); the LFMIS with respect to the
// ID order is produced.
type stepNode struct {
	res     *Result
	node    int
	id      int
	idBound int
	state   misproto.State
}

// StepProgram returns the per-node program. ids assigns each node a
// unique ID in [1, I].
func StepProgram(res *Result, ids []int, idBound int) sim.StepProgram {
	return func(env *sim.NodeEnv) sim.StepNode {
		return &stepNode{res: res, node: env.ID, id: ids[env.ID], idBound: idBound}
	}
}

func (n *stepNode) Start(out *sim.Outbox) {
	out.Broadcast(misproto.StateMsg{State: n.state}) // algorithm round 1
}

func (n *stepNode) OnWake(round int64, inbox []sim.Inbound, out *sim.Outbox) (int64, bool) {
	r := int(round) + 1 // algorithm round
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
		n.res.InMIS[n.node] = true
	}
	if r == n.idBound {
		return 0, true
	}
	out.Broadcast(misproto.StateMsg{State: n.state})
	return round + 1, false
}

// Prepare checks the IDs and returns the naive algorithm's step
// program for g under that ID assignment, and the Result it fills as
// the run completes.
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
		return fmt.Errorf("naive: %d ids for %d nodes", len(ids), n)
	}
	seen := make(map[int]bool, n)
	for v, id := range ids {
		if id < 1 || id > idBound {
			return fmt.Errorf("naive: node %d id %d outside [1,%d]", v, id, idBound)
		}
		if seen[id] {
			return fmt.Errorf("naive: duplicate id %d", id)
		}
		seen[id] = true
	}
	return nil
}
