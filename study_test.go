package awakemis_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"awakemis"
)

// quickStudy is the acceptance-criteria workload: the paper's
// headline task and the VT-MIS auxiliary over an n-sweep, three
// trials per cell. The seed pins one deterministic draw of the shared
// per-size graphs (cells run all trials on one graph since the paired
// graph-seed derivation); most seeds show the loglog signal at this
// sweep, a few draw an outlier graph — this one is a typical draw.
func quickStudy() awakemis.StudySpec {
	return awakemis.StudySpec{
		Name:    "quick",
		Tasks:   []string{"awake-mis", "vt-mis"},
		Sizes:   []int{64, 256, 1024},
		Trials:  3,
		Seed:    5,
		Options: awakemis.Options{Strict: true},
	}
}

// tinyStudy is the cheapest interesting grid, for tests that sweep
// executor settings.
func tinyStudy() awakemis.StudySpec {
	return awakemis.StudySpec{
		Name:    "tiny",
		Tasks:   []string{"luby", "vt-mis"},
		Sizes:   []int{32, 64},
		Trials:  2,
		Seed:    3,
		Options: awakemis.Options{Strict: true},
	}
}

func TestStudySpecExpansion(t *testing.T) {
	ss := awakemis.StudySpec{
		Tasks:    []string{"awake-mis", "luby"},
		Families: []awakemis.GraphSpec{{Family: "gnp"}, {Family: "Regular", Degree: 6}},
		Sizes:    []int{32, 64},
		Engines:  []awakemis.Engine{""},
		Trials:   2,
		Seed:     9,
	}
	cells := ss.Cells()
	specs := ss.Specs()
	if len(cells) != 2*2*2 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	if len(specs) != len(cells)*2 {
		t.Fatalf("specs = %d, want %d", len(specs), len(cells)*2)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
	}
	// The empty engine resolves; the mixed-case family lowercases and
	// its knob lands in the family key.
	if cells[0].Engine != awakemis.EngineStepped {
		t.Errorf("engine = %q, want stepped", cells[0].Engine)
	}
	if want := "regular(d=6)"; cells[len(cells)-1].Family != want {
		t.Errorf("family key = %q, want %q", cells[len(cells)-1].Family, want)
	}
	// Every spec is valid, seed-resolved, and workers/trace-free.
	seedsByGraph := map[string]int64{}
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			t.Fatalf("spec %d invalid: %v", i, err)
		}
		if spec.Options.Seed == 0 {
			t.Fatalf("spec %d seed unresolved", i)
		}
		if spec.Options.Workers != 0 || spec.Options.Trace {
			t.Fatalf("spec %d leaked workers/trace: %+v", i, spec.Options)
		}
		// Seeds depend only on (family, size, trial): the same graph
		// under every task and engine.
		cell, trial := cells[i/2], i%2
		key := cell.Family + "/" + string(rune('0'+trial)) + "/" + string(rune('0'+cell.N/32))
		if prev, ok := seedsByGraph[key]; ok && prev != spec.Options.Seed {
			t.Errorf("spec %d: seed %d differs from sibling %d for %s", i, spec.Options.Seed, prev, key)
		}
		seedsByGraph[key] = spec.Options.Seed
	}
	// Expansion is deterministic.
	again := ss.Specs()
	for i := range specs {
		if specs[i] != again[i] {
			t.Fatalf("expansion not deterministic at spec %d", i)
		}
	}

	// Cell seeds depend on the nominal cell, not its grid position:
	// two studies overlapping on a (family, n, trial) derive the same
	// spec for it, so their daemon submissions share one cache entry.
	wide := awakemis.StudySpec{Tasks: []string{"luby"}, Sizes: []int{32, 64}, Trials: 1, Seed: 9}
	narrow := awakemis.StudySpec{Tasks: []string{"luby"}, Sizes: []int{64}, Trials: 1, Seed: 9}
	if wide.Specs()[1] != narrow.Specs()[0] {
		t.Errorf("overlapping cells expand differently:\n%+v\n%+v", wide.Specs()[1], narrow.Specs()[0])
	}
}

func TestStudySpecValidate(t *testing.T) {
	cases := []struct {
		name string
		ss   awakemis.StudySpec
		want string
	}{
		{"no tasks", awakemis.StudySpec{}, "missing tasks"},
		{"unknown task", awakemis.StudySpec{Tasks: []string{"quicksort"}}, "unknown task"},
		{"dup task", awakemis.StudySpec{Tasks: []string{"luby", "luby"}}, "duplicate"},
		{"family n", awakemis.StudySpec{Tasks: []string{"luby"}, Families: []awakemis.GraphSpec{{Family: "gnp", N: 8}}}, "n must be zero"},
		{"family seed", awakemis.StudySpec{Tasks: []string{"luby"}, Families: []awakemis.GraphSpec{{Family: "gnp", Seed: 1}}}, "seed must be zero"},
		{"options seed", awakemis.StudySpec{Tasks: []string{"luby"}, Options: awakemis.Options{Seed: 5}}, "options.seed"},
		{"options engine", awakemis.StudySpec{Tasks: []string{"luby"}, Options: awakemis.Options{Engine: awakemis.EngineStepped}}, "options.engine"},
		{"bad size", awakemis.StudySpec{Tasks: []string{"luby"}, Sizes: []int{0}}, "sizes[0]"},
		{"bad engine", awakemis.StudySpec{Tasks: []string{"luby"}, Engines: []awakemis.Engine{"quantum"}}, "unknown engine"},
		{"oversized grid", awakemis.StudySpec{Tasks: []string{"luby"}, Trials: 1 << 40}, "split the grid"},
		// 3 sizes × 2^62 overflows a naive running product past the cap
		// check; the per-factor guard must trip instead of panicking in
		// the expansion's make().
		{"overflowing grid", awakemis.StudySpec{Tasks: []string{"luby"}, Trials: 1 << 62}, "split the grid"},
		{"cross-axis", awakemis.StudySpec{Tasks: []string{"luby"}, Families: []awakemis.GraphSpec{{Family: "regular", Degree: 64}}, Sizes: []int{32, 128}}, "degree"},
	}
	for _, c := range cases {
		err := c.ss.Validate()
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		if !strings.Contains(err.Error(), "invalid spec") {
			t.Errorf("%s: error %q does not wrap ErrInvalidSpec", c.name, err)
		}
	}
	if err := quickStudy().Validate(); err != nil {
		t.Errorf("quick study invalid: %v", err)
	}
}

// TestStudyArtifactDeterminism is the study determinism contract:
// the same StudySpec produces a byte-identical StudyResult artifact
// at every Parallel and Workers setting.
func TestStudyArtifactDeterminism(t *testing.T) {
	ss := tinyStudy()
	var golden []byte
	for _, cfg := range []awakemis.StudyRunner{
		{Parallel: 1, Workers: 1},
		{Parallel: 2, Workers: 1},
		{Parallel: 8, Workers: 4},
		{}, // defaults
	} {
		res, err := cfg.Run(context.Background(), ss)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		data, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = data
			continue
		}
		if string(data) != string(golden) {
			t.Fatalf("artifact differs at Parallel=%d Workers=%d", cfg.Parallel, cfg.Workers)
		}
	}
}

// TestStudyVectorizedMatchesScalar pins the executor's identity
// contract: at every replication count and worker setting, running
// each cell as one Trials-lane pass produces a StudyResult artifact
// byte-identical to one assembled from plain one-lane Runs of the
// expanded specs.
func TestStudyVectorizedMatchesScalar(t *testing.T) {
	for _, trials := range []int{1, 3, 8} {
		ss := awakemis.StudySpec{
			Name:    "ident",
			Tasks:   []string{"luby", "vt-mis"},
			Sizes:   []int{32, 64},
			Trials:  trials,
			Seed:    11,
			Options: awakemis.Options{Strict: true},
		}
		acc, err := ss.Accumulator()
		if err != nil {
			t.Fatal(err)
		}
		for i, spec := range acc.Specs() {
			rep, err := awakemis.Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := acc.Add(i, rep); err != nil {
				t.Fatal(err)
			}
		}
		res, err := acc.Result()
		if err != nil {
			t.Fatal(err)
		}
		golden, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			sr := awakemis.StudyRunner{Workers: workers}
			res, err := sr.Run(context.Background(), ss)
			if err != nil {
				t.Fatalf("trials=%d workers=%d: %v", trials, workers, err)
			}
			data, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != string(golden) {
				t.Fatalf("artifact differs from one-lane runs at trials=%d workers=%d", trials, workers)
			}
		}
	}
}

// TestStudyFitPrefersLogLog checks the acceptance criterion: over the
// quick study's n-sweep, awake-mis's awake-metric fit prefers the
// log log n model while vt-mis (awake Θ(log I), I = n) prefers log n.
func TestStudyFitPrefersLogLog(t *testing.T) {
	res, err := (&awakemis.StudyRunner{}).Run(context.Background(), quickStudy())
	if err != nil {
		t.Fatal(err)
	}
	fit, ok := res.Fit("awake-mis", "gnp", awakemis.EngineStepped, "max_awake")
	if !ok {
		t.Fatal("awake-mis max_awake fit missing")
	}
	if fit.Model != "loglog n" {
		t.Errorf("awake-mis max_awake model = %q, want loglog n (fit %+v)", fit.Model, fit)
	}
	if fit.B < fit.BLo-1e-9 || fit.B > fit.BHi+1e-9 {
		t.Errorf("slope %v outside its CI [%v, %v]", fit.B, fit.BLo, fit.BHi)
	}
	vt, ok := res.Fit("vt-mis", "gnp", awakemis.EngineStepped, "max_awake")
	if !ok {
		t.Fatal("vt-mis max_awake fit missing")
	}
	if vt.Model != "log n" {
		t.Errorf("vt-mis max_awake model = %q, want log n (fit %+v)", vt.Model, vt)
	}
	// Cells carry the distribution summary metrics.
	cell, ok := res.Cell("awake-mis", "gnp", 1024, awakemis.EngineStepped)
	if !ok {
		t.Fatal("awake-mis n=1024 cell missing")
	}
	for _, metric := range []string{"max_awake", "awake_p50", "awake_p99", "rounds", "graph_m"} {
		m, ok := cell.Metrics[metric]
		if !ok || m.Trials != 3 {
			t.Errorf("cell metric %s = %+v (ok=%v)", metric, m, ok)
		}
	}
}

// TestStudyArtifactRoundTrip: an artifact decoded from its own JSON
// re-encodes and re-renders identically — what lets a client of the
// daemon regenerate the CSV views locally.
func TestStudyArtifactRoundTrip(t *testing.T) {
	res, err := (&awakemis.StudyRunner{}).Run(context.Background(), tinyStudy())
	if err != nil {
		t.Fatal(err)
	}
	first, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded awakemis.StudyResult
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second, err := decoded.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Error("JSON round trip not stable")
	}
	if res.CellsCSV() != decoded.CellsCSV() || res.FitsCSV() != decoded.FitsCSV() {
		t.Error("CSV renderings differ after round trip")
	}
	if !strings.HasPrefix(res.CellsCSV(), "task,family,n,engine,metric,trials,mean,std,min,median,max\n") {
		t.Errorf("cells CSV header:\n%s", res.CellsCSV())
	}
	wantRows := len(res.Cells)*len(res.Cells[0].Metrics) + 1
	if got := strings.Count(res.CellsCSV(), "\n"); got != wantRows {
		t.Errorf("cells CSV has %d lines, want %d", got, wantRows)
	}
}

func TestStudyAccumulatorGuards(t *testing.T) {
	ss := awakemis.StudySpec{Tasks: []string{"luby"}, Sizes: []int{16}, Trials: 1, Seed: 1}
	acc, err := ss.Accumulator()
	if err != nil {
		t.Fatal(err)
	}
	if acc.Total() != 1 {
		t.Fatalf("total = %d", acc.Total())
	}
	if _, err := acc.Result(); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("incomplete result error = %v", err)
	}
	rep, err := awakemis.Run(context.Background(), acc.Study().Specs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(0, rep); err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(0, rep); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate add error = %v", err)
	}
	if err := acc.Add(5, rep); err == nil {
		t.Error("out-of-range add accepted")
	}
	if _, err := acc.Result(); err != nil {
		t.Errorf("complete result errored: %v", err)
	}
}
