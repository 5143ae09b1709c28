package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimesAndNesting(t *testing.T) {
	// op 1: spec [0,100] with children run [10,60] and encode [60,90];
	// run has a child [20,30].
	spans := []Span{
		{ID: 1, Op: 1, Name: "spec", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "run", Start: 10, End: 60},
		{ID: 3, Parent: 1, Op: 1, Name: "encode", Start: 60, End: 90},
		{ID: 4, Parent: 2, Op: 1, Name: "round", Start: 20, End: 30},
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 20, 2: 40, 3: 30, 4: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := unaccounted(spans); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("unaccounted = %g, want 0.2", got)
	}

	escaping := append(spans[:3:3], Span{ID: 4, Parent: 2, Op: 1, Name: "round", Start: 50, End: 70})
	if checkNesting(escaping) == nil {
		t.Error("a child ending after its parent passed the nesting check")
	}
	crossOp := append(spans[:3:3], Span{ID: 4, Parent: 2, Op: 2, Name: "round", Start: 20, End: 30})
	if checkNesting(crossOp) == nil {
		t.Error("a child of another operation passed the nesting check")
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	ivs := [][2]int64{{50, 70}, {0, 20}, {10, 30}, {65, 200}}
	if got := covered(ivs, 5, 100); got != 25+50 {
		t.Errorf("covered = %d, want 75", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %g, want 3.7", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestZeroWall(t *testing.T) {
	for in, want := range map[string]string{
		`{"verified":true,"wall_ms":12.5,"x":1}`:      `{"verified":true,"wall_ms":0,"x":1}`,
		"{\n  \"wall_ms\": 3.25e-02\n}":               "{\n  \"wall_ms\": 0\n}",
		`{"wall_ms":1,"round_summary":{"wall_ms":2}}`: "",
		`{"verified":true}`:                           "",
	} {
		if got := string(zeroWall([]byte(in))); got != want {
			t.Errorf("zeroWall(%s) = %q, want %q", in, got, want)
		}
	}
}

func TestOverheadComparesLikeWithLike(t *testing.T) {
	// Untraced hits are fast and misses slow; traced operations are 10%
	// slower within each class, so the overhead is 0.1 whatever the mix.
	traced := []float64{1.1, 1.1, 11}
	untraced := []float64{1, 10, 10, 10}
	got := overhead(traced, untraced, []string{"hit", "hit", "miss"}, []string{"hit", "miss", "miss", "miss"})
	if math.Abs(got-0.1) > 1e-12 {
		t.Errorf("overhead = %g, want 0.1", got)
	}
}
