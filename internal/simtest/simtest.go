// Package simtest holds the digest check the simulator's test suites
// share: a step program on the vector engine, across its worker and
// lane counts, against the SHA-256 digests of Metrics and output
// frozen in the package's testdata. The digests were recorded from
// the goroutine-form originals on the lockstep reference engine while
// both still existed, so the retired oracle's verdict survives as
// data.
package simtest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"awakemis/internal/graph"
	"awakemis/internal/sim"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite the checked-in digest files from the current code")

// UpdateDigests reports whether the test binary runs with
// -update-digests: digest checks then record what the code produces
// instead of comparing against the checked-in files.
func UpdateDigests() bool { return *updateDigests }

// Case builds one run's program and a reader for the output it
// records. Every call must return fresh state. A nil out means the
// program records nothing beyond Metrics.
type Case func() (sp sim.StepProgram, out func() any)

// Workers and Lanes span the vector engine's grid: each worker count
// runs one-lane and three-lane passes.
var (
	Workers = []int{1, 4, runtime.NumCPU()}
	Lanes   = []int{1, 3}
)

// digestFile holds the frozen digests of every CheckForms case run in
// a package, keyed by case name and seed.
const digestFile = "testdata/form_digests.json"

// digest fingerprints one run: the SHA-256 of its Metrics JSON
// (AwakePerNode included) and of its output JSON.
type digest struct {
	Metrics string `json:"metrics"`
	Output  string `json:"output"`
}

// CheckForms runs mk's program on the vector engine at every worker
// count and lane count, lane i seeded cfg.Seed+i. Each lane's Metrics
// and output must match the digest frozen under name and its seed in
// digestFile; with -update-digests they are recorded instead (and must
// still agree across the grid). It returns lane 0's Metrics from the
// first pass.
func CheckForms(t testing.TB, name string, g *graph.Graph, mk Case, cfg sim.Config) *sim.Metrics {
	t.Helper()
	frozen := readDigests(t)
	got := map[string]digest{}
	var first *sim.Metrics
	for _, workers := range Workers {
		for _, lanes := range Lanes {
			progs := make([]sim.StepProgram, lanes)
			outs := make([]func() any, lanes)
			cfgs := make([]sim.Config, lanes)
			for i := range lanes {
				progs[i], outs[i] = mk()
				cfgs[i] = cfg
				cfgs[i].Seed += int64(i)
				cfgs[i].Workers = workers
			}
			ms, err := sim.RunLanes(context.Background(), g, progs, cfgs)
			if err != nil {
				t.Fatalf("vector workers=%d lanes=%d: %v", workers, lanes, err)
			}
			for i := range lanes {
				k := key(name, cfg.Seed+int64(i))
				d := digestOf(t, ms[i], read(outs[i]))
				want, ok := got[k]
				if !ok && !*updateDigests {
					if want, ok = frozen[k]; !ok {
						t.Fatalf("%s: no frozen digest in %s", k, digestFile)
					}
				}
				if ok && d != want {
					t.Fatalf("%s: vector workers=%d lanes=%d lane %d: digest %+v, want %+v", k, workers, lanes, i, d, want)
				}
				got[k] = d
			}
			if first == nil {
				first = ms[0]
			}
		}
	}
	if *updateDigests {
		writeDigests(t, frozen, got)
	}
	return first
}

func key(name string, seed int64) string { return fmt.Sprintf("%s/seed=%d", name, seed) }

func digestOf(t testing.TB, m *sim.Metrics, out any) digest {
	t.Helper()
	return digest{Metrics: sha(t, m), Output: sha(t, out)}
}

func sha(t testing.TB, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// readDigests loads digestFile; a missing file is empty.
func readDigests(t testing.TB) map[string]digest {
	t.Helper()
	path := filepath.FromSlash(digestFile)
	frozen := map[string]digest{}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return frozen
	}
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	if err := json.Unmarshal(data, &frozen); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
	return frozen
}

// writeDigests rewrites digestFile as frozen updated with got, so the
// entries other cases froze are kept. The suites using it run their
// cases sequentially, so frozen is current.
func writeDigests(t testing.TB, frozen, got map[string]digest) {
	t.Helper()
	for k, d := range got {
		frozen[k] = d
	}
	data, err := json.MarshalIndent(frozen, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.FromSlash(digestFile)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func read(out func() any) any {
	if out == nil {
		return nil
	}
	return out()
}
