package ldtmis

import (
	"math/rand"
	"sort"
	"testing"

	"awakemis/internal/graph"
	"awakemis/internal/sim"
	"awakemis/internal/verify"
	"awakemis/internal/vtree"
)

// runStep prepares standalone LDT-MIS on g and runs it on the engine.
func runStep(g *graph.Graph, ids []int64, np int, v Variant, cfg sim.Config) (*Result, *sim.Metrics, error) {
	sp, res, err := Prepare(g, ids, np, v)
	if err != nil {
		return nil, nil, err
	}
	m, err := sim.RunStep(g, sp, cfg)
	return res, m, err
}

// bigIDs draws unique IDs from a huge space (I ≫ n), the regime
// LDT-MIS is designed for.
func bigIDs(n int, rng *rand.Rand) []int64 {
	seen := map[int64]bool{}
	ids := make([]int64, n)
	for v := range ids {
		for {
			id := rng.Int63n(1<<40) + 1
			if !seen[id] {
				seen[id] = true
				ids[v] = id
				break
			}
		}
	}
	return ids
}

func maxComp(g *graph.Graph) int {
	max := 1
	for _, c := range g.Components() {
		if len(c) > max {
			max = len(c)
		}
	}
	return max
}

// checkLFMISPerComponent verifies that within each component the output
// is the LFMIS with respect to ascending NewID.
func checkLFMISPerComponent(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	if err := verify.CheckMIS(g, res.InMIS); err != nil {
		t.Fatal(err)
	}
	for ci, comp := range g.Components() {
		order := append([]int(nil), comp...)
		sort.Slice(order, func(i, j int) bool {
			return res.NewID[order[i]] < res.NewID[order[j]]
		})
		// NewIDs must be exactly 1..|comp| within the component.
		for i, v := range order {
			if res.NewID[v] != i+1 {
				t.Fatalf("component %d: new IDs not a permutation: node %d has %d, want %d",
					ci, v, res.NewID[v], i+1)
			}
		}
		sub, mapping := g.Induced(comp)
		backMap := map[int]int{}
		for newIdx, orig := range mapping {
			backMap[orig] = newIdx
		}
		subOrder := make([]int, len(order))
		for i, v := range order {
			subOrder[i] = backMap[v]
		}
		subIn := make([]bool, sub.N())
		for newIdx, orig := range mapping {
			subIn[newIdx] = res.InMIS[orig]
		}
		if err := verify.CheckLFMIS(sub, subIn, subOrder); err != nil {
			t.Fatalf("component %d: %v", ci, err)
		}
	}
}

func testGraphs(seed int64) map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return map[string]*graph.Graph{
		"single":   graph.New(1),
		"pair":     graph.Path(2),
		"path":     graph.Path(11),
		"cycle":    graph.Cycle(14),
		"star":     graph.Star(9),
		"complete": graph.Complete(6),
		"tree":     graph.RandomTree(18, rng),
		"disjoint": graph.DisjointUnion(graph.Cycle(6), graph.Path(4), graph.New(3)),
	}
}

func TestLDTMISAwakeVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, g := range testGraphs(1) {
		t.Run(name, func(t *testing.T) {
			res, _, err := runStep(g, bigIDs(g.N(), rng), maxComp(g), VariantAwake,
				sim.Config{Seed: 3, N: 1 << 16, Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			checkLFMISPerComponent(t, g, res)
		})
	}
}

func TestLDTMISRoundVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for name, g := range testGraphs(2) {
		t.Run(name, func(t *testing.T) {
			res, _, err := runStep(g, bigIDs(g.N(), rng), maxComp(g), VariantRound,
				sim.Config{Seed: 4, N: 1 << 16, Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			checkLFMISPerComponent(t, g, res)
		})
	}
}

// TestLemma11AwakeComplexity: awake is O(log n′ + (n′ log n′)/log I),
// crucially independent of the ID-space size — compare with VT-MIS
// whose awake is Θ(log I).
func TestLemma11AwakeComplexity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Cycle(24)
	np := 24
	_, m, err := runStep(g, bigIDs(g.N(), rng), np, VariantAwake,
		sim.Config{Seed: 5, N: 1 << 16, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	// Budget: construction dominates with ~10 awake rounds per phase;
	// ranking, chunks, and VT-MIS add lower-order terms.
	_, _, chunks := permChunks(np, sim.DefaultBandwidth(1<<16))
	budget := int64(12*constructPhases(VariantAwake, np)+4*chunks) +
		int64(4*vtree.Depth(np)) + 16
	if m.MaxAwake > budget {
		t.Errorf("MaxAwake %d > budget %d", m.MaxAwake, budget)
	}
	// The point of the lemma: awake ≪ log(I) is false for VT-MIS with
	// I = 2^40 but true here; 40 bits of ID space never enter the bound.
	if m.MaxAwake > 1000 {
		t.Errorf("MaxAwake %d absurdly large", m.MaxAwake)
	}
}

func TestSpanMatchesExecution(t *testing.T) {
	// Span must exactly bound the rounds RunSubStep consumes: the last
	// possible wake is base+Span-1, so total rounds ≤ 1 + Span.
	for _, v := range []Variant{VariantAwake, VariantRound} {
		g := graph.Path(7)
		np := 7
		rng := rand.New(rand.NewSource(6))
		_, m, err := runStep(g, bigIDs(7, rng), np, v, sim.Config{Seed: 7, N: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		span := Span(np, sim.DefaultBandwidth(1<<16), v)
		if m.Rounds > span+1 {
			t.Errorf("variant %v: rounds %d exceed span %d + 1", v, m.Rounds, span)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	g := graph.Path(3)
	if _, _, err := runStep(g, []int64{1, 2}, 3, VariantAwake, sim.Config{}); err == nil {
		t.Error("wrong id count accepted")
	}
	if _, _, err := runStep(g, []int64{1, 2, 2}, 3, VariantAwake, sim.Config{}); err == nil {
		t.Error("duplicate ids accepted")
	}
}

func TestVariantString(t *testing.T) {
	if VariantAwake.String() != "awake" || VariantRound.String() != "round" {
		t.Error("variant names wrong")
	}
}

func TestDeterministicReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.Cycle(10)
	ids := bigIDs(10, rng)
	run := func() *Result {
		res, _, err := runStep(g, ids, 10, VariantAwake, sim.Config{Seed: 9, N: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for v := range a.InMIS {
		if a.InMIS[v] != b.InMIS[v] || a.NewID[v] != b.NewID[v] {
			t.Fatalf("replay diverged at %d", v)
		}
	}
}
