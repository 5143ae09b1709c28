package ldt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"awakemis/internal/graph"
	"awakemis/internal/sim"
)

// TestSubsetParticipation exercises the mode Awake-MIS actually uses:
// only a subset of nodes runs the LDT session while the rest sleep.
// Participants must discover exactly each other through Hello (the
// sleeping model silently hides non-participants) and build one LDT per
// connected component of the induced subgraph.
func TestSubsetParticipation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Grid(6, 6) // 36 nodes
	// Participants: a checkerboard-ish random half.
	participant := make([]bool, g.N())
	var members []int
	for v := range participant {
		if rng.Intn(2) == 0 {
			participant[v] = true
			members = append(members, v)
		}
	}
	if len(members) < 5 {
		t.Skip("degenerate sample")
	}
	sub, mapping := g.Induced(members)
	np := 1
	for _, c := range sub.Components() {
		if len(c) > np {
			np = len(c)
		}
	}

	h := &harness{snaps: map[int]*snapshot{}}
	ids := rand.New(rand.NewSource(7)).Perm(1 << 12)
	prog := sessions(func(sn *session) {
		v := sn.env.ID
		if !participant[v] {
			return // non-participants drop out after round 0
		}
		p := NewSProc(&sn.Machine, sn.env.Rand, 1, int64(ids[v]+1), np)
		p.Hello(func() {
			// Hello must discover exactly the participating neighbors.
			wantDeg := 0
			for _, w := range g.Neighbors(v) {
				if participant[w] {
					wantDeg++
				}
			}
			if len(p.Active()) != wantDeg {
				t.Errorf("node %d discovered %d participants, want %d",
					v, len(p.Active()), wantDeg)
			}
			p.ConstructAwake(DefaultAwakePhases(np), func() { h.put(v, treeSnapshot(p)) })
		})
	})
	if _, err := sim.RunStep(g, prog, sim.Config{Seed: 3, N: 1 << 12, Strict: true}); err != nil {
		t.Fatal(err)
	}

	// Validate per component of the induced subgraph, using original ids.
	for ci, comp := range sub.Components() {
		rootID := h.snaps[mapping[comp[0]]].rootID
		rootSeen := false
		for _, sv := range comp {
			v := mapping[sv]
			s := h.snaps[v]
			if s == nil {
				t.Fatalf("participant %d has no snapshot", v)
			}
			if s.rootID != rootID {
				t.Fatalf("component %d: node %d rootID %d != %d", ci, v, s.rootID, rootID)
			}
			if s.id == rootID {
				rootSeen = true
				if s.parentPort != -1 {
					t.Fatalf("root %d has a parent", v)
				}
			}
			// Parent/child ports must lead to participants.
			if s.parentPort >= 0 && !participant[g.Neighbor(v, s.parentPort)] {
				t.Fatalf("node %d parent port leads to a sleeper", v)
			}
			for _, q := range s.children {
				if !participant[g.Neighbor(v, q)] {
					t.Fatalf("node %d child port leads to a sleeper", v)
				}
			}
		}
		if !rootSeen {
			t.Fatalf("component %d: root ID %d not owned by a member", ci, rootID)
		}
	}
}

// TestQuickConstructionsOnRandomGraphs property-tests both
// constructions over random connected graphs.
func TestQuickConstructionsOnRandomGraphs(t *testing.T) {
	f := func(seed int64, nn uint8, det bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%14) + 2
		g := connectify(graph.GNP(n, 0.3, rng))
		h := &harness{snaps: map[int]*snapshot{}}
		ids := rng.Perm(1 << 12)
		prog := sessions(func(sn *session) {
			v := sn.env.ID
			p := NewSProc(&sn.Machine, sn.env.Rand, 1, int64(ids[v]+1), n)
			construct(p, n, det, func() {
				p.Rank(func(rank, total int) {
					s := treeSnapshot(p)
					s.rank, s.total = rank, total
					h.put(v, s)
				})
			})
		})
		if _, err := sim.RunStep(g, prog, sim.Config{Seed: seed, N: 1 << 12, Strict: true}); err != nil {
			return false
		}
		// All same root; ranks form a permutation; totals equal n.
		rootID := h.snaps[0].rootID
		seen := make([]bool, n+1)
		for v := 0; v < n; v++ {
			s := h.snaps[v]
			if s.rootID != rootID || s.total != n {
				return false
			}
			if s.rank < 1 || s.rank > n || seen[s.rank] {
				return false
			}
			seen[s.rank] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
