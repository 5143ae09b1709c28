// Command graphgen generates workloads: edge lists for external
// tools, or ready-to-submit Spec JSON for the batch runner and the
// awakemisd service.
//
// Usage:
//
//	graphgen -graph gnp -n 1024 -p 0.004 -seed 7 > g.txt
//	graphgen -format spec -graph gnp -n 1024 -task awake-mis > spec.json
//	graphgen -format batch -families all -tasks awake-mis,luby -seeds 3 > specs.json
//	graphgen -format study -families gnp,regular -tasks awake-mis,vt-mis \
//	    -sizes 64,256,1024 -trials 3 > study.json
//
// Formats:
//
//	edges  (default) one "u v" pair per line after a "# n m" header
//	spec   one Spec as JSON — pipe into POST /v1/jobs
//	batch  a JSON array of Specs, the cross product of -families ×
//	       -tasks × -seeds — pipe into awakemis -batch or submit with
//	       awakemis -batch specs.json -server URL
//	study  one StudySpec as JSON: the declarative grid -families ×
//	       -tasks × -sizes with -trials replications per cell — run
//	       with awakemis -study or submit to POST /v1/studies
//
// Batch specs are named family/task/s<seed> and validated before
// emission, so a generated file never fails downstream; study specs
// are validated the same way (including every cell of the expansion).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"awakemis"
)

func main() {
	var (
		family   = flag.String("graph", "gnp", "family: "+strings.Join(awakemis.Families(), "|"))
		n        = flag.Int("n", 1024, "number of nodes")
		p        = flag.Float64("p", 0, "edge probability for gnp (0 = 4/n)")
		d        = flag.Int("d", 4, "degree for regular / attachments for powerlaw")
		r        = flag.Float64("r", 0.1, "radius for geometric")
		seed     = flag.Int64("seed", 1, "random seed (batch: the first of -seeds consecutive seeds; study: the root seed)")
		format   = flag.String("format", "edges", "output: edges|spec|batch|study")
		tasks    = flag.String("tasks", "awake-mis", "spec/batch/study: comma-separated task names (see awakemis -list)")
		families = flag.String("families", "", `batch/study: comma-separated families, or "all" (default: the -graph family)`)
		seeds    = flag.Int("seeds", 1, "batch: seed variants per family×task combo (seed, seed+1, ...)")
		sizes    = flag.String("sizes", "64,256,1024", "study: comma-separated n-sweep")
		trials   = flag.Int("trials", 3, "study: replications per grid cell")
		name     = flag.String("name", "", "study: artifact label (empty = unnamed)")
		strict   = flag.Bool("strict", true, "spec/batch/study: enforce the CONGEST bandwidth bound")
	)
	flag.Parse()

	switch *format {
	case "edges":
		emitEdges(*family, awakemis.GenOptions{N: *n, P: *p, Degree: *d, Radius: *r, Seed: *seed})
	case "spec":
		taskList := splitList(*tasks)
		if len(taskList) != 1 {
			fail(fmt.Errorf("-format spec emits one spec; got %d tasks (use -format batch)", len(taskList)))
		}
		spec := buildSpec(taskList[0], *family, *n, *p, *d, *r, *seed, *strict)
		emitJSON(spec)
	case "batch":
		famList := splitList(*families)
		if len(famList) == 0 {
			famList = []string{*family}
		} else if len(famList) == 1 && strings.EqualFold(famList[0], "all") {
			famList = awakemis.Families()
		}
		taskList := splitList(*tasks)
		if len(taskList) == 0 {
			fail(fmt.Errorf("-format batch needs at least one task"))
		}
		if *seeds < 1 {
			fail(fmt.Errorf("-seeds must be at least 1, got %d", *seeds))
		}
		var specs []awakemis.Spec
		for _, fam := range famList {
			for _, task := range taskList {
				for i := range *seeds {
					specs = append(specs, buildSpec(task, fam, *n, *p, *d, *r, *seed+int64(i), *strict))
				}
			}
		}
		emitJSON(specs)
	case "study":
		famList := splitList(*families)
		if len(famList) == 0 {
			famList = []string{*family}
		} else if len(famList) == 1 && strings.EqualFold(famList[0], "all") {
			famList = awakemis.Families()
		}
		taskList := splitList(*tasks)
		if len(taskList) == 0 {
			fail(fmt.Errorf("-format study needs at least one task"))
		}
		ss := buildStudy(*name, taskList, famList, splitList(*sizes), *trials, *seed, *p, *d, *r, *strict)
		emitJSON(ss)
	default:
		fail(fmt.Errorf("unknown -format %q (have edges|spec|batch|study)", *format))
	}
}

// buildStudy assembles and validates a ready-to-run StudySpec grid:
// the same family-knob elision rules as buildSpec, applied per family
// axis entry, with the n-sweep and replication count as axes instead
// of flags baked into each spec. Validation covers the whole
// expansion, so an emitted study never fails downstream.
func buildStudy(name string, tasks, families, sizeList []string, trials int, seed int64, p float64, d int, r float64, strict bool) awakemis.StudySpec {
	var sizes []int
	for _, s := range sizeList {
		n, err := strconv.Atoi(s)
		if err != nil {
			fail(fmt.Errorf("-sizes: %w", err))
		}
		sizes = append(sizes, n)
	}
	fams := make([]awakemis.GraphSpec, len(families))
	for i, fam := range families {
		gs := awakemis.GraphSpec{Family: strings.ToLower(fam)}
		switch gs.Family {
		case "gnp":
			gs.P = p
		case "regular", "powerlaw":
			if d != 4 {
				gs.Degree = d
			}
		case "geometric":
			if r != 0.1 {
				gs.Radius = r
			}
		}
		fams[i] = gs
	}
	ss := awakemis.StudySpec{
		Name:     name,
		Tasks:    tasks,
		Families: fams,
		Sizes:    sizes,
		Trials:   trials,
		Seed:     seed,
		Options:  awakemis.Options{Strict: strict},
	}
	if err := ss.Validate(); err != nil {
		fail(err)
	}
	return ss
}

// buildSpec assembles and validates one Spec; flag values that match
// the family defaults are elided so the emitted JSON stays minimal.
func buildSpec(task, family string, n int, p float64, d int, r float64, seed int64, strict bool) awakemis.Spec {
	gs := awakemis.GraphSpec{Family: family, N: n}
	switch strings.ToLower(family) {
	case "gnp":
		gs.P = p
	case "regular", "powerlaw":
		if d != 4 {
			gs.Degree = d
		}
	case "geometric":
		if r != 0.1 {
			gs.Radius = r
		}
	}
	spec := awakemis.Spec{
		Name:  fmt.Sprintf("%s/%s/s%d", strings.ToLower(family), task, seed),
		Task:  task,
		Graph: gs,
		Options: awakemis.Options{
			Seed:   seed,
			Strict: strict,
		},
	}
	if err := spec.Validate(); err != nil {
		fail(err)
	}
	return spec
}

// splitList parses a comma-separated flag into trimmed entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func emitEdges(family string, o awakemis.GenOptions) {
	g, err := awakemis.Generate(family, o)
	if err != nil {
		fail(err)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "# %d %d\n", g.N(), g.M())
	for _, e := range g.Edges() {
		fmt.Fprintf(w, "%d %d\n", e[0], e[1])
	}
}

func emitJSON(v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fail(err)
	}
	fmt.Println(string(data))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
