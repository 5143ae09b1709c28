// Benchmarks regenerating the paper-reproduction experiments (one per
// table/figure of the experiment list, expt.All in internal/expt).
// Beyond ns/op, each benchmark reports the complexity measures the
// paper is about as custom metrics: awake-max (worst-case awake
// complexity), awake-avg, and rounds.
//
// Run everything:
//
//	go test -bench=. -benchmem
package awakemis_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"awakemis"
	"awakemis/internal/core"
	"awakemis/internal/graph"
	"awakemis/internal/greedy"
	"awakemis/internal/ldt"
	"awakemis/internal/ldtmis"
	"awakemis/internal/sim"
	"awakemis/internal/vtree"
)

func benchRun(b *testing.B, algo awakemis.Algorithm, n int) {
	b.Helper()
	g := awakemis.GNP(n, 4/float64(n), int64(n))
	var last awakemis.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runOn(g, string(algo), awakemis.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Metrics
	}
	b.ReportMetric(float64(last.MaxAwake), "awake-max")
	b.ReportMetric(last.AvgAwake, "awake-avg")
	b.ReportMetric(float64(last.Rounds), "rounds")
}

// BenchmarkAwakeMIS regenerates E1 (Theorem 13): worst-case awake
// complexity of Awake-MIS across the size sweep.
func BenchmarkAwakeMIS(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(sizeName(n), func(b *testing.B) { benchRun(b, awakemis.AwakeMIS, n) })
	}
}

// BenchmarkAwakeMISRound regenerates E2 (Corollary 14).
func BenchmarkAwakeMISRound(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(sizeName(n), func(b *testing.B) { benchRun(b, awakemis.AwakeMISRound, n) })
	}
}

// BenchmarkLuby is the E7 baseline: Θ(log n) awake complexity.
func BenchmarkLuby(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(sizeName(n), func(b *testing.B) { benchRun(b, awakemis.Luby, n) })
	}
}

// BenchmarkNaiveGreedy is the E7/E3 baseline with O(I) awake.
func BenchmarkNaiveGreedy(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(sizeName(n), func(b *testing.B) { benchRun(b, awakemis.NaiveGreedy, n) })
	}
}

// BenchmarkVTMIS regenerates E3 (Lemma 10): O(log I) awake.
func BenchmarkVTMIS(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(sizeName(n), func(b *testing.B) { benchRun(b, awakemis.VTMIS, n) })
	}
}

// BenchmarkLDTMIS regenerates E4 (Lemma 11) on connected components.
func BenchmarkLDTMIS(b *testing.B) {
	for _, np := range []int{16, 64} {
		b.Run(sizeName(np), func(b *testing.B) {
			g := graph.Cycle(np)
			rng := rand.New(rand.NewSource(int64(np)))
			ids := make([]int64, np)
			seen := map[int64]bool{}
			for i := range ids {
				for {
					id := rng.Int63n(1<<40) + 1
					if !seen[id] {
						seen[id] = true
						ids[i] = id
						break
					}
				}
			}
			var last *sim.Metrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp, _, err := ldtmis.Prepare(g, ids, np, ldtmis.VariantAwake)
				if err != nil {
					b.Fatal(err)
				}
				m, err := sim.RunStep(g, sp, sim.Config{Seed: int64(i), N: 1 << 16})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(float64(last.MaxAwake), "awake-max")
			b.ReportMetric(float64(last.Rounds), "rounds")
		})
	}
}

// BenchmarkResidualSparsity regenerates E5 (Lemma 2).
func BenchmarkResidualSparsity(b *testing.B) {
	n := 2048
	rng := rand.New(rand.NewSource(5))
	g := graph.GNP(n, 8/float64(n), rng)
	var last int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order := rng.Perm(n)
		last = greedy.ResidualMaxDegree(g, order, n/16, n)
	}
	b.ReportMetric(float64(last), "residual-deg")
	b.ReportMetric(16*2*math.Log(float64(n)), "lemma2-bound")
}

// BenchmarkShattering regenerates E6 (Lemma 3).
func BenchmarkShattering(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	h := graph.RandomRegular(2048, 8, rng)
	var last int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = greedy.MaxShatteredComponent(greedy.Shatter(h, rng))
	}
	b.ReportMetric(float64(last), "max-component")
	b.ReportMetric(12*math.Log(2048), "lemma3-bound")
}

// BenchmarkLDTConstruct regenerates E9 (Lemma 16): both constructions.
func BenchmarkLDTConstruct(b *testing.B) {
	for _, det := range []bool{false, true} {
		name := "awake"
		if det {
			name = "round"
		}
		b.Run(name, func(b *testing.B) {
			np := 32
			g := graph.Cycle(np)
			var last *sim.Metrics
			b.ResetTimer()
			prog := sim.StepProgram(func(env *sim.NodeEnv) sim.StepNode {
				return &ldtBuilder{env: env, np: np, det: det}
			})
			for i := 0; i < b.N; i++ {
				m, err := sim.RunStep(g, prog, sim.Config{Seed: int64(i), N: 1 << 12})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(float64(last.MaxAwake), "awake-max")
			b.ReportMetric(float64(last.Rounds), "rounds")
		})
	}
}

// ldtBuilder runs Hello and one LDT construction on a Machine,
// starting at round 1.
type ldtBuilder struct {
	sim.Machine
	env *sim.NodeEnv
	np  int
	det bool
}

func (n *ldtBuilder) Start(out *sim.Outbox) {
	n.Begin(out, func() {
		n.Yield(0, nil, func([]sim.Inbound) {
			p := ldt.NewSProc(&n.Machine, n.env.Rand, 1, int64(1000+n.env.ID), n.np)
			p.Hello(func() {
				if n.det {
					p.ConstructRound(ldt.DefaultRoundPhases(n.np), func() {})
				} else {
					p.ConstructAwake(ldt.DefaultAwakePhases(n.np), func() {})
				}
			})
		})
	})
}

// BenchmarkColoring regenerates E11 (§7 extension): (Δ+1)-coloring in
// O(log n) awake rounds.
func BenchmarkColoring(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(sizeName(n), func(b *testing.B) {
			g := awakemis.GNP(n, 4/float64(n), int64(n))
			var last awakemis.Metrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runOn(g, awakemis.TaskColoring, awakemis.Options{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Metrics
			}
			b.ReportMetric(float64(last.MaxAwake), "awake-max")
			b.ReportMetric(float64(last.Rounds), "rounds")
		})
	}
}

// BenchmarkAblationNP regenerates the NP axis of E10: phase length vs
// awake complexity.
func BenchmarkAblationNP(b *testing.B) {
	for _, np := range []int{16, 48} {
		b.Run("np="+itoa(np), func(b *testing.B) {
			g := awakemis.GNP(512, 4.0/512, 5)
			var last awakemis.Metrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runOn(g, string(awakemis.AwakeMIS), awakemis.Options{
					Seed:   int64(i),
					Params: core.Params{C1: 4, DeltaPrime: 8, NP: np},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Metrics
			}
			b.ReportMetric(float64(last.MaxAwake), "awake-max")
			b.ReportMetric(float64(last.Rounds), "rounds")
		})
	}
}

// BenchmarkMatching regenerates E12 (§7 extension): maximal matching
// with early-exit awake complexity.
func BenchmarkMatching(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(sizeName(n), func(b *testing.B) {
			g := awakemis.GNP(n, 4/float64(n), int64(n))
			var last awakemis.Metrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runOn(g, awakemis.TaskMatching, awakemis.Options{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Metrics
			}
			b.ReportMetric(float64(last.MaxAwake), "awake-max")
			b.ReportMetric(last.AvgAwake, "awake-avg")
			b.ReportMetric(float64(last.Rounds), "rounds")
		})
	}
}

// BenchmarkVectorizedTrials measures the tentpole: R replications of
// one study cell (same graph, paired seeds) as a per-trial scalar loop
// versus one merged vectorized pass. The scalar arm mirrors the scalar
// study path exactly — one Run per trial, graph rebuilt each time —
// so ns/op ratios between the scalar and vector arms are the study
// throughput gain. CI's bench job records both arms in
// BENCH_vector.json and smoke-gates the ratio at R = 8.
func BenchmarkVectorizedTrials(b *testing.B) {
	for _, n := range []int{4096, 1 << 20} {
		for _, r := range []int{2, 8, 32} {
			spec := awakemis.Spec{
				Task:    "luby",
				Graph:   awakemis.GraphSpec{Family: "gnp", N: n, Seed: 1},
				Options: awakemis.Options{Seed: 1},
			}
			trials := make([]awakemis.Trial, r)
			for i := range trials {
				trials[i] = awakemis.Trial{Seed: int64(i + 1)}
			}
			out := make([]*awakemis.Report, r)
			name := sizeName(n) + "/r=" + itoa(r)
			b.Run(name+"/scalar", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for j := range trials {
						sp := spec
						sp.Options.Seed = trials[j].Seed
						rep, err := awakemis.Run(context.Background(), sp)
						if err != nil {
							b.Fatal(err)
						}
						out[j] = rep
					}
				}
			})
			b.Run(name+"/vector", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := awakemis.Run(context.Background(), spec,
						awakemis.WithVectorizedTrials(trials, out)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCommSet measures the F1/F2 machinery itself.
func BenchmarkCommSet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i%4095 + 1
		_ = vtree.CommSet(k, 4096)
	}
}

// BenchmarkEngines runs every registered task on the production
// vector engine (a one-lane pass, reported as "stepped") at small n.
// The sub-benchmark names keep their engine suffix so recorded runs
// stay comparable:
//
//	go test -run xxx -bench BenchmarkEngines -benchtime 2x
func BenchmarkEngines(b *testing.B) {
	const n = 1024
	for _, task := range awakemis.TaskNames() {
		b.Run(task+"/stepped", func(b *testing.B) {
			var last awakemis.Metrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := runPlain(awakemis.Spec{
					Task:    task,
					Graph:   awakemis.GraphSpec{Family: "gnp", N: n, Seed: n},
					Options: awakemis.Options{Seed: int64(i)},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = rep.Metrics
			}
			b.ReportMetric(float64(last.MaxAwake), "awake-max")
			b.ReportMetric(float64(last.Rounds), "rounds")
		})
	}
}

// floodNode broadcasts in rounds 0..9, then halts.
type floodNode struct{}

func (floodNode) Start(out *sim.Outbox) { out.Broadcast(floodMsg{}) }

func (floodNode) OnWake(round int64, _ []sim.Inbound, out *sim.Outbox) (int64, bool) {
	if round == 9 {
		return 0, true
	}
	out.Broadcast(floodMsg{})
	return round + 1, false
}

// BenchmarkSimulatorFlood measures raw engine throughput (messages
// through routing and inbox delivery).
func BenchmarkSimulatorFlood(b *testing.B) {
	g := graph.Grid(16, 16)
	prog := sim.StepProgram(func(*sim.NodeEnv) sim.StepNode { return floodNode{} })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunStep(g, prog, sim.Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

type floodMsg struct{}

func (floodMsg) Bits() int { return 1 }

func sizeName(n int) string {
	switch {
	case n >= 1024 && n%1024 == 0:
		return "n=" + itoa(n/1024) + "k"
	default:
		return "n=" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
