package awakemis_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"awakemis"
)

func TestSpecValidate(t *testing.T) {
	valid := awakemis.Spec{
		Task:    "awake-mis",
		Graph:   awakemis.GraphSpec{Family: "gnp", N: 64, P: 0.1},
		Options: awakemis.Options{Seed: 1},
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// Zero values mean "default" everywhere.
	if err := (awakemis.Spec{Task: "luby"}).Validate(); err != nil {
		t.Fatalf("all-defaults spec rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*awakemis.Spec)
		want string // substring of the error
	}{
		{"missing task", func(s *awakemis.Spec) { s.Task = "" }, "missing task"},
		{"unknown task", func(s *awakemis.Spec) { s.Task = "frobnicate" }, `unknown task "frobnicate"`},
		{"unknown family", func(s *awakemis.Spec) { s.Graph.Family = "moebius" }, "unknown graph family"},
		{"negative n", func(s *awakemis.Spec) { s.Graph.N = -5 }, "non-negative node count"},
		{"p too big", func(s *awakemis.Spec) { s.Graph.P = 1.5 }, "edge probability"},
		{"negative p", func(s *awakemis.Spec) { s.Graph.P = -0.1 }, "edge probability"},
		{"negative degree", func(s *awakemis.Spec) { s.Graph.Degree = -1 }, "degree must be non-negative"},
		{"negative radius", func(s *awakemis.Spec) { s.Graph.Radius = -0.2 }, "radius must be non-negative"},
		{"regular degree >= n", func(s *awakemis.Spec) {
			s.Graph = awakemis.GraphSpec{Family: "regular", N: 8, Degree: 8}
		}, "degree < n"},
		{"unknown engine", func(s *awakemis.Spec) { s.Options.Engine = "quantum" }, `unknown engine "quantum"`},
		{"lockstep engine", func(s *awakemis.Spec) { s.Options.Engine = "lockstep" }, "drop the field"},
		{"negative workers", func(s *awakemis.Spec) { s.Options.Workers = -2 }, "workers must be non-negative"},
		{"negative N bound", func(s *awakemis.Spec) { s.Options.N = -1 }, "network-size bound"},
		{"negative bandwidth", func(s *awakemis.Spec) { s.Options.Bandwidth = -8 }, "bandwidth"},
		{"negative max rounds", func(s *awakemis.Spec) { s.Options.MaxRounds = -1 }, "max_rounds"},
	}
	for _, tc := range cases {
		spec := valid
		tc.mut(&spec)
		err := spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the spec", tc.name)
			continue
		}
		if !errors.Is(err, awakemis.ErrInvalidSpec) {
			t.Errorf("%s: error does not wrap ErrInvalidSpec: %v", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// Run must reject malformed specs up front with ErrInvalidSpec (the
// service daemon's 400-vs-500 discrimination), not via a deep
// generator or engine failure.
func TestRunSpecValidates(t *testing.T) {
	ctx := context.Background()
	_, err := awakemis.Run(ctx, awakemis.Spec{Task: "no-such-task"})
	if !errors.Is(err, awakemis.ErrInvalidSpec) {
		t.Errorf("Run(unknown task) = %v, want ErrInvalidSpec", err)
	}
	_, err = awakemis.Run(ctx, awakemis.Spec{
		Task:  "luby",
		Graph: awakemis.GraphSpec{Family: "gnp", N: -3},
	})
	if !errors.Is(err, awakemis.ErrInvalidSpec) {
		t.Errorf("Run(negative n) = %v, want ErrInvalidSpec", err)
	}
	// A graph in hand skips the graph spec, not the options check.
	_, err = awakemis.Run(ctx, awakemis.Spec{Task: "luby", Options: awakemis.Options{Engine: "lockstep"}},
		awakemis.WithGraph(awakemis.Cycle(8)))
	if !errors.Is(err, awakemis.ErrInvalidSpec) {
		t.Errorf("Run(lockstep, WithGraph) = %v, want ErrInvalidSpec", err)
	}
}

// TestValidateBoundsGraphSize: a spec whose graph would overflow the
// simulator's edge limit is rejected up front as ErrInvalidSpec rather
// than crashing the process that builds it.
func TestValidateBoundsGraphSize(t *testing.T) {
	for _, gs := range []awakemis.GraphSpec{
		{Family: "complete", N: 47_000},
		{Family: "hypercube", N: 1 << 31},
		{Family: "path", N: 1 << 31},
		{Family: "regular", N: 1 << 28, Degree: 9},
		{Family: "gnp", N: 70_000, P: 0.99},
		{Family: "geometric", N: 100_000, Radius: 0.5},
		{Family: "powerlaw", N: 1 << 28, Degree: 8},
	} {
		err := awakemis.Spec{Task: "luby", Graph: gs}.Validate()
		if !errors.Is(err, awakemis.ErrInvalidSpec) || !strings.Contains(err.Error(), "edges") {
			t.Errorf("%+v: Validate = %v, want an edge-limit ErrInvalidSpec", gs, err)
		}
	}
	if err := (awakemis.Spec{Task: "luby", Graph: awakemis.GraphSpec{Family: "complete", N: 46_000}}).Validate(); err != nil {
		t.Errorf("complete n=46000 fits the limit but was rejected: %v", err)
	}
	for _, family := range []string{"gnp", "geometric", "powerlaw"} {
		if err := (awakemis.Spec{Task: "luby", Graph: awakemis.GraphSpec{Family: family}}).Validate(); err != nil {
			t.Errorf("default-size %s was rejected: %v", family, err)
		}
	}
}

// TestEdgeBoundIsExact checks the bound against the graphs Generate
// builds, for every deterministic-size family and sizes that exercise
// Generate's rounding (grid and torus sides, hypercube dimensions).
func TestEdgeBoundIsExact(t *testing.T) {
	for _, family := range []string{"complete", "hypercube", "torus", "grid", "star", "path", "cycle", "tree", "regular"} {
		for _, n := range []int{1, 2, 3, 4, 5, 9, 10, 17, 64, 100} {
			gs := awakemis.GraphSpec{Family: family, N: n, Degree: 2}
			if family == "regular" && n <= 2 {
				continue
			}
			g, err := awakemis.Generate(family, awakemis.GenOptions{N: n, Degree: 2, Seed: 1})
			if err != nil {
				t.Fatalf("%s n=%d: %v", family, n, err)
			}
			m, ok := gs.EdgeBound()
			if !ok {
				t.Fatalf("%s: no edge bound", family)
			}
			if family == "regular" {
				if float64(g.M()) > m {
					t.Errorf("regular n=%d: %d edges over the bound %.0f", n, g.M(), m)
				}
				continue
			}
			if float64(g.M()) != m {
				t.Errorf("%s n=%d: bound %.0f, generated %d edges", family, n, m, g.M())
			}
		}
	}
}

// TestRandomEdgeBoundHolds checks that the bound Validate uses for the
// random-size families is an upper bound on the graphs Generate draws
// at the family defaults.
func TestRandomEdgeBoundHolds(t *testing.T) {
	for _, family := range []string{"gnp", "geometric", "powerlaw"} {
		for _, n := range []int{64, 100, 1000} {
			m, ok := awakemis.GraphSpec{Family: family, N: n}.EdgeBound()
			if !ok {
				t.Fatalf("%s: no edge bound", family)
			}
			for seed := int64(1); seed <= 3; seed++ {
				g, err := awakemis.Generate(family, awakemis.GenOptions{N: n, Seed: seed})
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", family, n, seed, err)
				}
				if float64(g.M()) > m {
					t.Errorf("%s n=%d seed=%d: %d edges over the bound %.0f", family, n, seed, g.M(), m)
				}
			}
		}
	}
}
