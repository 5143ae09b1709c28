package awakemis

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestColoringTask(t *testing.T) {
	for name, g := range map[string]*Graph{
		"gnp":       GNP(120, 0.08, 1),
		"hypercube": Hypercube(6),
		"torus":     Torus(6, 7),
		"bipartite": CompleteBipartite(8, 9),
	} {
		t.Run(name, func(t *testing.T) {
			res, err := runOn(g, TaskColoring, Options{Seed: 5, Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			// Proper coloring, bounded palette.
			colors := map[int]bool{}
			for v, c := range res.Output.Color {
				colors[c] = true
				for _, w := range g.Neighbors(v) {
					if res.Output.Color[w] == c {
						t.Fatalf("edge (%d,%d) monochromatic", v, w)
					}
				}
			}
			if len(colors) > g.MaxDegree()+1 {
				t.Errorf("%d colors exceed Δ+1 = %d", len(colors), g.MaxDegree()+1)
			}
			if res.Metrics.MaxAwake > 20 {
				t.Errorf("coloring awake %d too large for O(log n)", res.Metrics.MaxAwake)
			}
		})
	}
}

func TestMatchingTask(t *testing.T) {
	for name, g := range map[string]*Graph{
		"gnp":   GNP(100, 0.08, 2),
		"cycle": Cycle(25),
		"torus": Torus(6, 6),
	} {
		t.Run(name, func(t *testing.T) {
			res, err := runOn(g, TaskMatching, Options{Seed: 6, Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			// Symmetry and maximality are verified by the task's checker;
			// check the metrics shape here.
			for v, w := range res.Output.MatchedWith {
				if w >= 0 && res.Output.MatchedWith[w] != v {
					t.Fatalf("asymmetric match at %d", v)
				}
			}
			if res.Metrics.MaxAwake > int64(g.MaxDegree())+1 {
				t.Errorf("awake %d exceeds deg+1 bound %d",
					res.Metrics.MaxAwake, g.MaxDegree()+1)
			}
		})
	}
}

func TestNewGenerators(t *testing.T) {
	if g := Hypercube(5); g.N() != 32 || g.MaxDegree() != 5 {
		t.Errorf("hypercube wrong: %v", g)
	}
	if g := Torus(5, 5); g.N() != 25 || g.MaxDegree() != 4 {
		t.Errorf("torus wrong: %v", g)
	}
	if g := CompleteBipartite(4, 6); g.N() != 10 || g.M() != 24 {
		t.Errorf("bipartite wrong: %v", g)
	}
	if g := Barbell(5, 2); !g.IsConnected() || g.N() != 12 {
		t.Errorf("barbell wrong: %v", g)
	}
	if g := Lollipop(5, 5); !g.IsConnected() || g.N() != 10 {
		t.Errorf("lollipop wrong: %v", g)
	}
}

func TestGraphReadWrite(t *testing.T) {
	g := Barbell(4, 2)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Errorf("round trip: n=%d m=%d, want n=%d m=%d", back.N(), back.M(), g.N(), g.M())
	}
	if _, err := ReadGraph(strings.NewReader("0 zero\n")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestTraceThroughFacade(t *testing.T) {
	g := Cycle(16)
	res, err := runOn(g, string(AwakeMIS), Options{Seed: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.TraceSummary(), "traced 16 nodes") {
		t.Errorf("summary: %s", res.TraceSummary())
	}
	tl := res.Timeline(3, 40)
	if !strings.Contains(tl, "|") || len(strings.Split(tl, "\n")) < 4 {
		t.Errorf("timeline:\n%s", tl)
	}
	// Without tracing, the accessors degrade gracefully.
	res2, err := runOn(g, string(Luby), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res2.Timeline(1, 10), "disabled") ||
		!strings.Contains(res2.TraceSummary(), "disabled") {
		t.Error("untraced result should say tracing is disabled")
	}
}

// TestTraceAcrossVectorizedLanes traces every lane of a merged pass:
// each lane's trace must read exactly as a plain traced run of that
// trial's seed.
func TestTraceAcrossVectorizedLanes(t *testing.T) {
	g := GNP(300, 4.0/300, 9)
	spec := Spec{Task: string(AwakeMIS), Options: Options{Trace: true}}
	trials := []Trial{{Seed: 1}, {Seed: 2}, {Seed: 3}}
	out := make([]*Report, len(trials))
	if _, err := Run(context.Background(), spec, WithGraph(g), WithVectorizedTrials(trials, out)); err != nil {
		t.Fatal(err)
	}
	for i, tr := range trials {
		plain, err := runOn(g, string(AwakeMIS), Options{Seed: tr.Seed, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := out[i].TraceSummary(), plain.TraceSummary(); got != want {
			t.Errorf("lane %d summary %q, plain run %q", i, got, want)
		}
		if got, want := out[i].Timeline(3, 40), plain.Timeline(3, 40); got != want {
			t.Errorf("lane %d timeline:\n%s\nplain run:\n%s", i, got, want)
		}
	}
}

func TestAwakeMISOnAdversarialFamilies(t *testing.T) {
	// Dense cores with sparse attachments stress the batching phases.
	for name, g := range map[string]*Graph{
		"barbell":  Barbell(12, 20),
		"lollipop": Lollipop(15, 30),
		"torus":    Torus(8, 8),
	} {
		t.Run(name, func(t *testing.T) {
			res, err := runOn(g, string(AwakeMIS), Options{Seed: 9, Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(g, res.Output.InMIS); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVertexRelabelingInvariance runs the same structural graph under a
// different vertex numbering: algorithms may only use ports and their
// private randomness, so validity must be preserved (an implementation
// leaning on global indices would break here).
func TestVertexRelabelingInvariance(t *testing.T) {
	n := 60
	base := GNP(n, 0.1, 4)
	// Relabel v -> (v*37+11) mod n (37 coprime to 60).
	perm := make([]int, n)
	for v := range perm {
		perm[v] = (v*37 + 11) % n
	}
	edges := [][2]int{}
	for _, e := range base.Edges() {
		edges = append(edges, [2]int{perm[e[0]], perm[e[1]]})
	}
	relabeled, err := NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AwakeMIS, Luby, VTMIS, LDTMIS} {
		res, err := runOn(relabeled, string(algo), Options{Seed: 4, Strict: true})
		if err != nil {
			t.Fatalf("%s on relabeled graph: %v", algo, err)
		}
		if err := Verify(relabeled, res.Output.InMIS); err != nil {
			t.Fatalf("%s on relabeled graph: %v", algo, err)
		}
	}
}
