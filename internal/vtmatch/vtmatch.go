// Package vtmatch implements maximal matching in the sleeping model —
// the first of the symmetry-breaking problems §7 asks to extend the
// paper's techniques to.
//
// The algorithm is the distributed form of sequential greedy matching
// over a random *edge* ordering: edge e is processed in round id_e, and
// joins the matching iff both endpoints are still unmatched. The
// sleeping model makes this almost free to coordinate: an endpoint that
// is already matched simply stays asleep, so its partner hears silence
// and correctly skips the edge — no state exchange is needed at all.
// Each node is awake for at most one round per incident edge (and stops
// as soon as it matches), giving awake complexity O(deg) with early
// exit, and round complexity I. The output is the lexicographically
// first maximal matching (LFMM) of the edge order, which the tests
// verify against the sequential reference.
package vtmatch

import (
	"fmt"
	"sort"

	"awakemis/internal/graph"
	"awakemis/internal/sim"
)

// proposeMsg signals "my side of this edge is unmatched".
type proposeMsg struct{}

// Bits implements sim.Message.
func (proposeMsg) Bits() int { return 1 }

var _ sim.Message = proposeMsg{}

// EdgeIDs assigns each edge (u < v) a unique processing round.
type EdgeIDs map[[2]int]int

// Check validates the assignment for g: complete, unique, in [1, bound].
func (ids EdgeIDs) Check(g *graph.Graph, bound int) error {
	if len(ids) != g.M() {
		return fmt.Errorf("vtmatch: %d edge ids for %d edges", len(ids), g.M())
	}
	seen := make(map[int]bool, len(ids))
	for _, e := range g.Edges() {
		id, ok := ids[e]
		if !ok {
			return fmt.Errorf("vtmatch: edge %v has no id", e)
		}
		if id < 1 || id > bound {
			return fmt.Errorf("vtmatch: edge %v id %d outside [1,%d]", e, id, bound)
		}
		if seen[id] {
			return fmt.Errorf("vtmatch: duplicate edge id %d", id)
		}
		seen[id] = true
	}
	return nil
}

// Result holds the matching: MatchedWith[v] is v's partner or -1.
type Result struct {
	MatchedWith []int
}

// slot schedules one incident edge: processed in sim round `round`
// through local port `port`.
type slot struct {
	round int
	port  int
}

// slotsOf returns node v's incident-edge schedule, ascending by round.
func slotsOf(g *graph.Graph, ids EdgeIDs, v int) []slot {
	slots := make([]slot, 0, g.Degree(v))
	for p := 0; p < g.Degree(v); p++ {
		w := g.Neighbor(v, p)
		key := [2]int{v, w}
		if w < v {
			key = [2]int{w, v}
		}
		slots = append(slots, slot{ids[key], p})
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].round < slots[j].round })
	return slots
}

// stepNode is one node of the matching: the node wakes once per
// incident edge in edge-ID order, proposing on that edge's port, and
// halts as soon as a counter-proposal arrives (both endpoints free
// means both propose, so hearing one on the slot's port means matched).
type stepNode struct {
	res   *Result
	g     *graph.Graph
	node  int
	slots []slot
	idx   int
}

// StepProgram returns the per-node program.
func StepProgram(res *Result, g *graph.Graph, ids EdgeIDs) sim.StepProgram {
	return func(env *sim.NodeEnv) sim.StepNode {
		return &stepNode{res: res, g: g, node: env.ID, slots: slotsOf(g, ids, env.ID)}
	}
}

func (n *stepNode) Start(out *sim.Outbox) {
	// Round 0 sends nothing: edge IDs start at 1.
}

func (n *stepNode) OnWake(round int64, inbox []sim.Inbound, out *sim.Outbox) (int64, bool) {
	if round > 0 {
		s := n.slots[n.idx]
		for _, m := range inbox {
			if _, ok := m.Msg.(proposeMsg); ok && m.Port == s.port {
				n.res.MatchedWith[n.node] = n.g.Neighbor(n.node, s.port)
				return 0, true // matched: sleep forever, silence skips later edges
			}
		}
		n.idx++
	}
	if n.idx == len(n.slots) {
		return 0, true
	}
	next := n.slots[n.idx]
	out.Send(next.port, proposeMsg{})
	return int64(next.round), false
}

// Prepare checks the edge IDs and returns the matching's step program
// for g and the Result it fills as the run completes. Each node knows
// the IDs of its incident edges (both endpoints deterministically
// derive an edge's ID, e.g. during a hello round; the caller passes
// the assignment in).
func Prepare(g *graph.Graph, ids EdgeIDs, bound int) (sim.StepProgram, *Result, error) {
	if err := ids.Check(g, bound); err != nil {
		return nil, nil, err
	}
	res := &Result{MatchedWith: make([]int, g.N())}
	for v := range res.MatchedWith {
		res.MatchedWith[v] = -1
	}
	return StepProgram(res, g, ids), res, nil
}

// GreedyReference computes the sequential greedy matching over the
// edge-ID order: process edges by ascending ID, matching both endpoints
// when both are free.
func GreedyReference(g *graph.Graph, ids EdgeIDs) []int {
	type edge struct {
		id   int
		u, v int
	}
	edges := make([]edge, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, edge{ids[e], e[0], e[1]})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].id < edges[j].id })
	matched := make([]int, g.N())
	for v := range matched {
		matched[v] = -1
	}
	for _, e := range edges {
		if matched[e.u] < 0 && matched[e.v] < 0 {
			matched[e.u] = e.v
			matched[e.v] = e.u
		}
	}
	return matched
}
