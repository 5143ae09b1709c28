package vtmatch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"awakemis/internal/graph"
	"awakemis/internal/sim"
	"awakemis/internal/verify"
)

// runStep prepares the matching on g and runs it on the engine.
func runStep(g *graph.Graph, ids EdgeIDs, bound int, cfg sim.Config) (*Result, *sim.Metrics, error) {
	sp, res, err := Prepare(g, ids, bound)
	if err != nil {
		return nil, nil, err
	}
	m, err := sim.RunStep(g, sp, cfg)
	return res, m, err
}

// randomEdgeIDs assigns a random permutation of [1, m] to the edges.
func randomEdgeIDs(g *graph.Graph, rng *rand.Rand) EdgeIDs {
	perm := rng.Perm(g.M())
	ids := EdgeIDs{}
	for i, e := range g.Edges() {
		ids[e] = perm[i] + 1
	}
	return ids
}

func TestMatchingValidOnFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := map[string]*graph.Graph{
		"cycle":     graph.Cycle(21),
		"path":      graph.Path(14),
		"complete":  graph.Complete(9),
		"star":      graph.Star(12),
		"gnp":       graph.GNP(70, 0.08, rng),
		"tree":      graph.RandomTree(40, rng),
		"bipartite": graph.CompleteBipartite(6, 8),
		"empty":     graph.New(5),
		"torus":     graph.Torus(5, 5),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			ids := randomEdgeIDs(g, rng)
			res, m, err := runStep(g, ids, g.M(), sim.Config{Seed: 3, Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.CheckMatching(g, res.MatchedWith); err != nil {
				t.Fatal(err)
			}
			// The output equals the sequential greedy matching.
			want := GreedyReference(g, ids)
			for v := range want {
				if res.MatchedWith[v] != want[v] {
					t.Fatalf("node %d matched %d, greedy says %d", v, res.MatchedWith[v], want[v])
				}
			}
			// Awake ≤ degree + 1 (the model's initial round).
			for v, a := range m.AwakePerNode {
				if a > int64(g.Degree(v))+1 {
					t.Errorf("node %d awake %d > deg+1 = %d", v, a, g.Degree(v)+1)
				}
			}
		})
	}
}

func TestPerfectMatchingOnEvenCycle(t *testing.T) {
	// C4 with sequential edge ids: edges (0,1),(2,3) match first.
	g := graph.Cycle(4)
	ids := EdgeIDs{}
	for i, e := range g.Edges() {
		ids[e] = i + 1
	}
	res, _, err := runStep(g, ids, g.M(), sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if verify.MatchingSize(res.MatchedWith) != 2 {
		t.Errorf("C4 should be perfectly matched: %v", res.MatchedWith)
	}
}

func TestEarlyExitSavesAwake(t *testing.T) {
	// On a star, the center matches in its first processed edge and
	// sleeps through the rest: awake ≪ degree.
	g := graph.Star(40)
	rng := rand.New(rand.NewSource(5))
	ids := randomEdgeIDs(g, rng)
	res, m, err := runStep(g, ids, g.M(), sim.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckMatching(g, res.MatchedWith); err != nil {
		t.Fatal(err)
	}
	if m.AwakePerNode[0] > 3 {
		t.Errorf("center awake %d rounds; early exit should stop it at its first edge",
			m.AwakePerNode[0])
	}
}

func TestRejectsBadEdgeIDs(t *testing.T) {
	g := graph.Path(3)
	if _, _, err := runStep(g, EdgeIDs{{0, 1}: 1}, 2, sim.Config{}); err == nil {
		t.Error("incomplete assignment accepted")
	}
	if _, _, err := runStep(g, EdgeIDs{{0, 1}: 1, {1, 2}: 1}, 2, sim.Config{}); err == nil {
		t.Error("duplicate ids accepted")
	}
	if _, _, err := runStep(g, EdgeIDs{{0, 1}: 1, {1, 2}: 9}, 2, sim.Config{}); err == nil {
		t.Error("out-of-range id accepted")
	}
}

func TestQuickMatchesSequentialGreedy(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%30) + 2
		g := graph.GNP(n, 0.25, rng)
		ids := randomEdgeIDs(g, rng)
		res, _, err := runStep(g, ids, g.M(), sim.Config{Seed: seed, Strict: true})
		if err != nil {
			return false
		}
		if verify.CheckMatching(g, res.MatchedWith) != nil {
			return false
		}
		want := GreedyReference(g, ids)
		for v := range want {
			if res.MatchedWith[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
