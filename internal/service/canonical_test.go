package service_test

import (
	"context"
	"reflect"
	"testing"

	"awakemis"
	"awakemis/internal/service"
)

func TestCanonicalizeFillsDefaults(t *testing.T) {
	got := service.Canonicalize(awakemis.Spec{Task: "luby"})
	want := awakemis.Spec{
		Task:    "luby",
		Graph:   awakemis.GraphSpec{Family: "gnp", N: 1024, P: 4.0 / 1024},
		Options: awakemis.Options{Engine: awakemis.EngineStepped},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Canonicalize(zero spec) = %+v, want %+v", got, want)
	}
}

func TestCanonicalizeZeroesIrrelevantFields(t *testing.T) {
	// A cycle ignores p, degree, and radius: specs differing only in
	// those knobs canonicalize — and therefore hash — identically.
	got := service.Canonicalize(awakemis.Spec{
		Task:    "luby",
		Graph:   awakemis.GraphSpec{Family: "Cycle", N: 64, P: 0.5, Degree: 7, Radius: 0.3},
		Options: awakemis.Options{Seed: 3, Workers: 8, Trace: true},
	})
	want := awakemis.Spec{
		Task:    "luby",
		Graph:   awakemis.GraphSpec{Family: "cycle", N: 64, Seed: 3},
		Options: awakemis.Options{Seed: 3, Engine: awakemis.EngineStepped},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Canonicalize = %+v, want %+v", got, want)
	}
}

// TestCanonicalizeSmallGNPStaysValid: the default edge probability
// 4/n exceeds 1 for n < 4; canonicalization must clamp it so a spec
// that validates raw still validates (and runs identically) in
// canonical form.
func TestCanonicalizeSmallGNPStaysValid(t *testing.T) {
	spec := awakemis.Spec{Task: "luby", Graph: awakemis.GraphSpec{N: 3}, Options: awakemis.Options{Seed: 7}}
	canon := service.Canonicalize(spec)
	if canon.Graph.P != 1 {
		t.Errorf("canonical P = %v, want the clamp to 1", canon.Graph.P)
	}
	if err := canon.Validate(); err != nil {
		t.Errorf("canonical form of a valid spec fails validation: %v", err)
	}
	raw, err := awakemis.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	canonRep, err := awakemis.Run(context.Background(), canon)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(raw.Output, canonRep.Output) || raw.Metrics.Rounds != canonRep.Metrics.Rounds {
		t.Error("n=3 gnp: canonical run diverges from the raw run")
	}
}

func TestCanonicalizeResolvesGraphSeed(t *testing.T) {
	spec := awakemis.Spec{
		Task:    "vt-mis",
		Graph:   awakemis.GraphSpec{Family: "tree", N: 40},
		Options: awakemis.Options{Seed: 77},
	}
	if got := service.Canonicalize(spec).Graph.Seed; got != 77 {
		t.Errorf("graph seed = %d, want the run seed 77", got)
	}
	spec.Graph.Seed = 5 // explicit graph seed survives
	if got := service.Canonicalize(spec).Graph.Seed; got != 5 {
		t.Errorf("graph seed = %d, want the explicit 5", got)
	}
}

func TestHashEquivalenceClasses(t *testing.T) {
	base := awakemis.Spec{
		Task:    "awake-mis",
		Graph:   awakemis.GraphSpec{Family: "gnp", N: 64},
		Options: awakemis.Options{Seed: 1},
	}
	h := func(s awakemis.Spec) string {
		t.Helper()
		hash, err := service.Hash(s)
		if err != nil {
			t.Fatal(err)
		}
		return hash
	}

	// Equal: defaults made explicit, worker/trace knobs, family case.
	same := []awakemis.Spec{base, base, base}
	same[1].Graph.P = 4.0 / 64
	same[1].Options.Engine = awakemis.EngineStepped
	same[1].Options.Workers = 16
	same[2].Graph.Family = "GNP"
	same[2].Graph.Seed = 1
	same[2].Options.Trace = true
	for i, s := range same {
		if h(s) != h(base) {
			t.Errorf("result-equivalent variant %d hashes differently", i)
		}
	}

	// Different: anything that changes the simulation or its label.
	diff := []awakemis.Spec{base, base, base, base, base}
	diff[0].Options.Seed = 2
	diff[1].Graph.N = 65
	diff[2].Task = "luby"
	diff[3].Name = "labeled"
	diff[4].Options.Strict = true
	seen := map[string]int{h(base): -1}
	for i, s := range diff {
		hash := h(s)
		if prev, dup := seen[hash]; dup {
			t.Errorf("variants %d and %d collide", prev, i)
		}
		seen[hash] = i
	}
}

// TestHashFrozen pins the canonical encoding: a change here silently
// invalidates every deployed report cache, so it must be deliberate.
func TestHashFrozen(t *testing.T) {
	hash, err := service.Hash(awakemis.Spec{
		Task:    "awake-mis",
		Graph:   awakemis.GraphSpec{Family: "gnp", N: 64},
		Options: awakemis.Options{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	const frozen = "5ffc313e92f510c2e1c341ae99614766efd2129d22ebcb2dd30732eeebff7fe9"
	if hash != frozen {
		t.Errorf("canonical hash drifted:\n got %s\nwant %s\n(an intentional change must update this constant and the README's cache note)", hash, frozen)
	}
}

// TestCanonicalSpecRunsIdentically: canonicalization must be
// semantics-preserving — the canonical spec produces the same Report
// as the original (the property content-addressed caching relies on).
func TestCanonicalSpecRunsIdentically(t *testing.T) {
	specs := []awakemis.Spec{
		{Task: "luby", Graph: awakemis.GraphSpec{Family: "Cycle", N: 40, P: 0.9}, Options: awakemis.Options{Seed: 4, Workers: 3}},
		{Task: "awake-mis", Graph: awakemis.GraphSpec{N: 48}, Options: awakemis.Options{Seed: 2}},
		{Task: "coloring", Graph: awakemis.GraphSpec{Family: "geometric", N: 30}, Options: awakemis.Options{Seed: 6, Engine: awakemis.EngineStepped}},
	}
	for i, spec := range specs {
		raw, err := awakemis.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("spec %d raw: %v", i, err)
		}
		canon, err := awakemis.Run(context.Background(), service.Canonicalize(spec))
		if err != nil {
			t.Fatalf("spec %d canonical: %v", i, err)
		}
		raw.WallMS, canon.WallMS = 0, 0
		// Workers is zeroed by canonicalization and worker counts never
		// change results; ignore it like wall time.
		raw.Workers, canon.Workers = 0, 0
		if !reflect.DeepEqual(raw, canon) {
			t.Errorf("spec %d: canonical run diverges:\n%+v\nvs\n%+v", i, raw, canon)
		}
	}
}
