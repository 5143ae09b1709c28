package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"awakemis/internal/graph"
	"awakemis/internal/ldtmis"
	"awakemis/internal/sim"
	"awakemis/internal/verify"
)

func TestAwakeMISOnStructuredFamilies(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"hypercube": graph.Hypercube(6),
		"torus":     graph.Torus(7, 9),
		"barbell":   graph.Barbell(10, 12),
		"lollipop":  graph.Lollipop(12, 24),
		"bipartite": graph.CompleteBipartite(10, 14),
		"powerlaw":  graph.PreferentialAttachment(90, 3, rand.New(rand.NewSource(1))),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			res, _, err := runStep(g, testParams(), sim.Config{Seed: 31, Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.CheckMIS(g, res.InMIS); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAwakeMISRoundVariantOnFamilies(t *testing.T) {
	p := testParams()
	p.Variant = ldtmis.VariantRound
	for name, g := range map[string]*graph.Graph{
		"cycle":   graph.Cycle(40),
		"star":    graph.Star(25),
		"torus":   graph.Torus(5, 6),
		"lonely":  graph.New(6),
		"barbell": graph.Barbell(6, 4),
	} {
		t.Run(name, func(t *testing.T) {
			res, _, err := runStep(g, p, sim.Config{Seed: 37, Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.CheckMIS(g, res.InMIS); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAwakeMISWithPolynomialBound exercises the paper's actual
// knowledge model: nodes know only a polynomial upper bound N on n.
func TestAwakeMISWithPolynomialBound(t *testing.T) {
	g := graph.Cycle(50)
	// Nodes believe the network may have up to n^2 = 2500 nodes.
	res, m, err := runStep(g, testParams(), sim.Config{Seed: 41, N: 2500, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckMIS(g, res.InMIS); err != nil {
		t.Fatal(err)
	}
	// Loose bound costs more phases but awake stays in the same regime.
	if m.MaxAwake > 2500 {
		t.Errorf("MaxAwake %d blew up under loose N", m.MaxAwake)
	}
}

// TestBatchPhaseAssignmentsRecorded checks the diagnostics output: each
// node's recorded batch is a valid phase index.
func TestBatchPhaseAssignmentsRecorded(t *testing.T) {
	g := graph.Cycle(30)
	params := testParams()
	res, _, err := runStep(g, params, sim.Config{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	sched := NewSchedule(30, params, sim.DefaultBandwidth(30))
	for v, ph := range res.Batch {
		if ph < 1 || ph > sched.TotalPhases {
			t.Errorf("node %d batch phase %d outside [1,%d]", v, ph, sched.TotalPhases)
		}
	}
}

// TestQuickAwakeMISRandomGraphs property-tests validity across random
// (seed, size, density) combinations for both variants.
func TestQuickAwakeMISRandomGraphs(t *testing.T) {
	f := func(seed int64, nn uint8, dens uint8, roundVariant bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%50) + 2
		p := float64(dens%30)/100 + 0.02
		g := graph.GNP(n, p, rng)
		params := testParams()
		if roundVariant {
			params.Variant = ldtmis.VariantRound
		}
		res, _, err := runStep(g, params, sim.Config{Seed: seed})
		if err != nil {
			return false
		}
		return verify.CheckMIS(g, res.InMIS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestScheduleTruncatesEmptyLevels verifies the cap logic: with large
// C1 the cumulative probability hits 1 early and empty top levels are
// dropped from the timetable.
func TestScheduleTruncatesEmptyLevels(t *testing.T) {
	small := NewSchedule(1024, Params{C1: 1000, DeltaPrime: 8, NP: 24}, 176)
	big := NewSchedule(1024, Params{C1: 0.5, DeltaPrime: 8, NP: 24}, 176)
	if small.Levels >= big.Levels {
		t.Errorf("large C1 should truncate levels: %d vs %d", small.Levels, big.Levels)
	}
	if small.cumProb[small.Levels-1] != 1 {
		t.Error("last level must absorb all remaining probability")
	}
}
