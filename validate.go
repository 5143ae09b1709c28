package awakemis

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"awakemis/internal/graph"
)

// ErrInvalidSpec is wrapped by every Spec.Validate failure, so callers
// that accept specs from the outside (the service daemon, batch file
// loaders) can distinguish a malformed request from an execution
// failure with errors.Is.
var ErrInvalidSpec = errors.New("invalid spec")

// Validate checks the spec without running it: the task must be
// registered, the graph spec well-formed, and the options within
// range, and the graph within the size the simulator can hold. Run
// and Runner.RunBatch validate every spec before
// spending a simulation on it, so a bad spec fails fast with a
// descriptive error (wrapping ErrInvalidSpec) instead of surfacing as
// a deep generator or engine failure.
func (s Spec) Validate() error {
	err := s.check()
	if err == nil {
		return nil
	}
	return fmt.Errorf("awakemis: %w %s: %s", ErrInvalidSpec, s.label(), err)
}

func (s Spec) check() error {
	if s.Task == "" {
		return fmt.Errorf("missing task (have %s)", strings.Join(TaskNames(), "|"))
	}
	if _, ok := TaskByName(s.Task); !ok {
		return fmt.Errorf("unknown task %q (have %s)", s.Task, strings.Join(TaskNames(), "|"))
	}
	if err := s.Graph.validate(); err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	if err := s.Options.validate(); err != nil {
		return fmt.Errorf("options: %w", err)
	}
	return nil
}

// validate checks the graph spec against its family's constraints.
// Zero values are legal (they mean "family default"); negative or
// out-of-range values are not.
func (gs GraphSpec) validate() error {
	family := gs.Family
	if family == "" {
		family = "gnp"
	}
	known := false
	for _, f := range Families() {
		if strings.EqualFold(family, f) {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown graph family %q (have %s)", gs.Family, strings.Join(Families(), "|"))
	}
	if gs.N < 0 {
		return fmt.Errorf("family %q needs a non-negative node count, got n=%d (0 means the default, 1024)", family, gs.N)
	}
	if gs.P < 0 || gs.P > 1 || math.IsNaN(gs.P) {
		return fmt.Errorf("edge probability must be in [0, 1], got p=%v", gs.P)
	}
	if gs.Degree < 0 {
		return fmt.Errorf("degree must be non-negative, got degree=%d", gs.Degree)
	}
	if gs.Radius < 0 || math.IsNaN(gs.Radius) {
		return fmt.Errorf("radius must be non-negative, got radius=%v", gs.Radius)
	}
	if strings.EqualFold(family, "regular") {
		n, d := gs.N, gs.Degree
		if n == 0 {
			n = 1024
		}
		if d == 0 {
			d = 4
		}
		if d >= n {
			return fmt.Errorf("regular family needs degree < n, got degree=%d >= n=%d", d, n)
		}
	}
	if m, ok := gs.edges(strings.ToLower(family)); ok && m > graph.MaxEdges {
		return fmt.Errorf("family %q at n=%d has up to %.0f edges, over the simulator's limit of %d", family, gs.N, m, graph.MaxEdges)
	}
	return nil
}

// edges bounds the edge count of the graph Generate builds, in
// float64 so huge node counts cannot overflow. For the
// deterministic-size families the count is exact (for regular, the
// stub pairing's count before loops and duplicates are repaired). For
// the random-size families it bounds what the generator preallocates
// and, with high probability, what it draws. gnp and geometric take
// GNP's own headroom, 1.1× the expected count plus 16 (for geometric
// the expected count is πr² of all pairs, ignoring the boundary loss);
// powerlaw attaches at most d edges per node. ok is false only for an
// unknown family.
func (gs GraphSpec) edges(family string) (m float64, ok bool) {
	n := float64(gs.N)
	if gs.N == 0 {
		n = 1024
	}
	pairs := n * (n - 1) / 2
	d := float64(gs.Degree)
	if d == 0 {
		d = 4
	}
	// side is the side of the square grid or torus Generate rounds n
	// up to.
	side := math.Ceil(math.Sqrt(n))
	if side*side < n {
		side++
	}
	switch family {
	case "gnp":
		p := gs.P
		if p == 0 {
			p = 4 / n
		}
		if p >= 1 {
			return pairs, true
		}
		return 1.1*p*pairs + 16, true
	case "geometric":
		r := gs.Radius
		if r == 0 {
			r = 0.1
		}
		return math.Min(pairs, 1.1*math.Pi*r*r*pairs+16), true
	case "powerlaw":
		return n * d, true
	case "complete":
		return pairs, true
	case "hypercube":
		dim := math.Ceil(math.Log2(n))
		return dim * math.Exp2(dim-1), true
	case "torus":
		perAxis := side * side
		if side < 3 {
			perAxis = side * (side - 1) // 2 for side 2, 0 for side 1
		}
		return 2 * perAxis, true
	case "grid":
		return 2 * side * (side - 1), true
	case "regular":
		return n * d / 2, true
	case "cycle":
		if n >= 3 {
			return n, true
		}
		return n - 1, true
	case "star", "path", "tree":
		return n - 1, true
	}
	return 0, false
}

// validate checks the run options: engine name, and non-negative
// resource knobs (zero always means "the default").
func (o Options) validate() error {
	switch o.Engine {
	case "", EngineStepped:
	case "lockstep":
		// The reference engine changed only speed, never results, so
		// such specs run unchanged without the field.
		return fmt.Errorf(`engine "lockstep" is no longer offered: it never changed results, so drop the field (or set "stepped") and rerun`)
	default:
		return fmt.Errorf("unknown engine %q (have stepped)", o.Engine)
	}
	if o.Workers < 0 {
		return fmt.Errorf("workers must be non-negative, got %d", o.Workers)
	}
	if o.N < 0 {
		return fmt.Errorf("the known network-size bound N must be non-negative, got %d", o.N)
	}
	if o.Bandwidth < 0 {
		return fmt.Errorf("bandwidth must be non-negative, got %d bits", o.Bandwidth)
	}
	if o.MaxRounds < 0 {
		return fmt.Errorf("max_rounds must be non-negative, got %d", o.MaxRounds)
	}
	return nil
}
