package vtmis

import (
	"math/rand"
	"testing"
	"testing/quick"

	"awakemis/internal/graph"
	"awakemis/internal/sim"
	"awakemis/internal/verify"
	"awakemis/internal/vtree"
)

// runStep prepares standalone VT-MIS on g and runs it on the engine.
func runStep(g *graph.Graph, ids []int, idBound int, cfg sim.Config) (*Result, *sim.Metrics, error) {
	sp, res, err := Prepare(g, ids, idBound)
	if err != nil {
		return nil, nil, err
	}
	m, err := sim.RunStep(g, sp, cfg)
	return res, m, err
}

func permIDs(n int, rng *rand.Rand) ([]int, []int) {
	perm := rng.Perm(n)
	ids := make([]int, n)
	order := make([]int, n)
	for v, p := range perm {
		ids[v] = p + 1
		order[p] = v
	}
	return ids, order
}

func TestVTMISComputesLFMIS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := map[string]*graph.Graph{
		"cycle":    graph.Cycle(33),
		"path":     graph.Path(16),
		"complete": graph.Complete(10),
		"star":     graph.Star(21),
		"gnp":      graph.GNP(80, 0.1, rng),
		"tree":     graph.RandomTree(64, rng),
		"disjoint": graph.DisjointUnion(graph.Cycle(7), graph.Path(5)),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			ids, order := permIDs(g.N(), rng)
			res, m, err := runStep(g, ids, g.N(), sim.Config{Seed: 11, Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.CheckLFMIS(g, res.InMIS, order); err != nil {
				t.Fatal(err)
			}
			// Lemma 10: O(log I) awake complexity. Each node is awake in
			// at most ⌈log I⌉ + 1 algorithm rounds, plus the initial
			// all-awake model round.
			bound := int64(vtree.Depth(g.N()) + 2)
			if m.MaxAwake > bound {
				t.Errorf("MaxAwake = %d > bound %d", m.MaxAwake, bound)
			}
			// Round complexity is O(I).
			if m.Rounds > int64(g.N())+1 {
				t.Errorf("Rounds = %d > I+1 = %d", m.Rounds, g.N()+1)
			}
		})
	}
}

func TestVTMISSparseIDs(t *testing.T) {
	// IDs from a large space [1, I], I >> n, exercising the virtual-tree
	// schedule with gaps (the regime LDT-MIS improves on).
	rng := rand.New(rand.NewSource(4))
	g := graph.GNP(40, 0.15, rng)
	bound := 1 << 12
	perm := rng.Perm(bound)[:g.N()]
	ids := make([]int, g.N())
	for v := range ids {
		ids[v] = perm[v] + 1
	}
	res, m, err := runStep(g, ids, bound, sim.Config{Seed: 13, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	// Order implied by IDs.
	type pair struct{ id, v int }
	pairs := make([]pair, g.N())
	for v := range ids {
		pairs[v] = pair{ids[v], v}
	}
	order := []int{}
	for id := 1; id <= bound; id++ {
		for _, p := range pairs {
			if p.id == id {
				order = append(order, p.v)
			}
		}
	}
	if err := verify.CheckLFMIS(g, res.InMIS, order); err != nil {
		t.Fatal(err)
	}
	if m.MaxAwake > int64(vtree.Depth(bound)+2) {
		t.Errorf("MaxAwake = %d exceeds O(log I) bound %d", m.MaxAwake, vtree.Depth(bound)+2)
	}
}

// TestVTMISExponentiallyBetterThanNaive is the Lemma 10 headline: same
// output as the naive O(I)-awake algorithm with only O(log I) awake.
func TestVTMISAwakeVsRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 256
	g := graph.GNP(n, 0.05, rng)
	ids, _ := permIDs(n, rng)
	_, m, err := runStep(g, ids, n, sim.Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxAwake >= int64(n)/8 {
		t.Errorf("awake %d not exponentially below I=%d", m.MaxAwake, n)
	}
	if m.Rounds < int64(n)/2 {
		t.Errorf("rounds %d suspiciously low for I=%d", m.Rounds, n)
	}
}

func TestQuickVTMISMatchesSequential(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%30) + 1
		g := graph.GNP(n, 0.3, rng)
		ids, order := permIDs(n, rng)
		res, _, err := runStep(g, ids, n, sim.Config{Seed: seed, Strict: true})
		if err != nil {
			return false
		}
		return verify.CheckLFMIS(g, res.InMIS, order) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestVTMISRejectsBadIDs(t *testing.T) {
	g := graph.Path(3)
	for _, ids := range [][]int{
		{1, 2},     // wrong length
		{1, 1, 2},  // duplicate
		{0, 1, 2},  // below range
		{1, 2, 99}, // above bound
	} {
		if _, _, err := runStep(g, ids, 3, sim.Config{}); err == nil {
			t.Errorf("ids %v accepted", ids)
		}
	}
}

func TestVTMISSingleNode(t *testing.T) {
	g := graph.New(1)
	res, _, err := runStep(g, []int{1}, 1, sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.InMIS[0] {
		t.Error("single node must join MIS")
	}
}
