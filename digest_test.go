package awakemis_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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
// task on a fixed graph, plus every run of the cross-engine grid.
func runDigests(t *testing.T) map[string]string {
	t.Helper()
	ctx := context.Background()
	got := map[string]string{}
	for _, task := range awakemis.TaskNames() {
		for _, gs := range digestGraphs {
			for _, seed := range []int64{1, 17} {
				spec := awakemis.Spec{Task: task, Graph: gs, Options: awakemis.Options{Seed: seed}}
				rep, err := awakemis.Run(ctx, spec)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", task, gs.Family, seed, err)
				}
				got[fmt.Sprintf("%s/%s/n=%d/seed=%d", task, gs.Family, gs.N, seed)] = digestReport(t, rep)
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
