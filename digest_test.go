package awakemis_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"awakemis"
	"awakemis/internal/simtest"
)

// runDigestsFile freezes the Report bytes of a small grid of runs as
// SHA-256 digests: the determinism contract held as data, so the bytes
// a spec yields cannot drift while engine code is reworked. Regenerate
// (go test -run TestRunDigests -update-digests .) only for a
// deliberate, documented change to what a run produces. The file also
// holds the cross-engine grid's digests (see equivGrid).
const runDigestsFile = "testdata/run_digests.json"

// digestReport hashes a report's JSON bytes with the one
// nondeterministic field, WallMS, zeroed.
func digestReport(t *testing.T, rep *awakemis.Report) string {
	t.Helper()
	rep.WallMS = 0
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// digestGraphs is the family axis of the digest grid, all at n ≤ 128.
var digestGraphs = []awakemis.GraphSpec{
	{Family: "gnp", N: 96},
	{Family: "cycle", N: 64},
	{Family: "grid", N: 100},
}

// runDigests computes every digest of the grid: each registered task ×
// family × seed as a plain run, plus one 3-trial vectorized batch per
// task on a fixed graph, plus every run of the cross-engine grid. The
// plain runs and the batches also run on the generated graph handed
// over WithGraph, and must hash the same as their spec-built twins.
func runDigests(t *testing.T) map[string]string {
	t.Helper()
	ctx := context.Background()
	got := map[string]string{}
	// onGraph runs spec's task on its generated graph via WithGraph.
	onGraph := func(spec awakemis.Spec, seed int64, opts ...awakemis.RunOption) (*awakemis.Report, error) {
		gs := spec.Graph
		g, err := awakemis.Generate(gs.Family, awakemis.GenOptions{N: gs.N, Seed: seed})
		if err != nil {
			return nil, err
		}
		spec.Graph = awakemis.GraphSpec{}
		return awakemis.Run(ctx, spec, append(opts, awakemis.WithGraph(g))...)
	}
	twin := func(key string, rep *awakemis.Report, err error) {
		if err != nil {
			t.Fatalf("%s via WithGraph: %v", key, err)
		}
		if d := digestReport(t, rep); d != got[key] {
			t.Errorf("%s: WithGraph digest %s, spec-built %s", key, d, got[key])
		}
	}
	for _, task := range awakemis.TaskNames() {
		for _, gs := range digestGraphs {
			for _, seed := range []int64{1, 17} {
				spec := awakemis.Spec{Task: task, Graph: gs, Options: awakemis.Options{Seed: seed}}
				rep, err := awakemis.Run(ctx, spec)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", task, gs.Family, seed, err)
				}
				key := fmt.Sprintf("%s/%s/n=%d/seed=%d", task, gs.Family, gs.N, seed)
				got[key] = digestReport(t, rep)
				rep, err = onGraph(spec, seed)
				twin(key, rep, err)
			}
		}

		spec := awakemis.Spec{Task: task, Graph: awakemis.GraphSpec{Family: "gnp", N: 80, Seed: 5}}
		trials := []awakemis.Trial{{Seed: 2, Name: "t0"}, {Seed: 3, Name: "t1"}, {Seed: 4, Name: "t2"}}
		out := make([]*awakemis.Report, len(trials))
		if _, err := awakemis.Run(ctx, spec, awakemis.WithVectorizedTrials(trials, out)); err != nil {
			t.Fatalf("%s vectorized: %v", task, err)
		}
		for i, rep := range out {
			got[fmt.Sprintf("%s/vector/gnp/n=80/trial=%d", task, i)] = digestReport(t, rep)
		}
		_, err := onGraph(spec, spec.Graph.Seed, awakemis.WithVectorizedTrials(trials, out))
		for i, rep := range out {
			twin(fmt.Sprintf("%s/vector/gnp/n=80/trial=%d", task, i), rep, err)
		}
	}
	// Two sources for one input graph is a caller bug.
	spec := awakemis.Spec{Task: "luby", Graph: digestGraphs[0]}
	if _, err := awakemis.Run(ctx, spec, awakemis.WithGraph(awakemis.Cycle(8))); !errors.Is(err, awakemis.ErrInvalidSpec) {
		t.Errorf("WithGraph with a non-zero spec graph: err = %v, want ErrInvalidSpec", err)
	}
	for _, c := range equivGrid() {
		for _, seed := range c.seeds {
			rep, err := awakemis.Run(ctx, c.spec(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			got[c.key(seed)] = digestReport(t, rep)
		}
	}
	return got
}

// frozenDigests reads runDigestsFile.
func frozenDigests(t *testing.T) map[string]string {
	t.Helper()
	path := filepath.FromSlash(runDigestsFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
	return want
}

// TestRunDigests checks every run of the digest grid against the
// frozen file.
func TestRunDigests(t *testing.T) {
	got := runDigests(t)
	path := filepath.FromSlash(runDigestsFile)
	if simtest.UpdateDigests() {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := frozenDigests(t)
	if len(got) != len(want) {
		t.Errorf("digest grid has %d runs, %s has %d", len(got), path, len(want))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: run missing from the grid", key)
		} else if g != w {
			t.Errorf("%s: report digest %s, frozen %s", key, g, w)
		}
	}
}
