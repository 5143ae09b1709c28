// BenchmarkScale measures the big-graph regime the CSR layout and
// zero-allocation step loop exist for: MIS tasks on G(n, 4/n) at
// n = 10⁵, 10⁶, 10⁷. Beyond ns/op it reports the two numbers that
// decide whether n = 10⁷–10⁸ fits on one machine:
//
//   - ns/node — end-to-end simulation time per vertex;
//   - graph-B/node — live heap bytes per vertex held by the graph
//     (measured across generation with a forced GC on each side);
//   - alloc-B/node — bytes allocated per vertex per run (with the
//     pooled round state this is run setup, not per-round churn).
//
// Reference numbers, including the seed-layout baseline this PR
// replaced, are recorded in BENCH_scale.json. Run the full sweep with:
//
//	go test -run xxx -bench BenchmarkScale -benchtime 1x -timeout 2h
package awakemis_test

import (
	"runtime"
	"testing"

	"awakemis"
)

func BenchmarkScale(b *testing.B) {
	sizes := []struct {
		name string
		n    int
	}{
		{"n=100k", 100_000},
		{"n=1M", 1_000_000},
		{"n=10M", 10_000_000},
	}
	tasks := []string{"luby", "vt-mis", "awake-mis"}
	for _, sz := range sizes {
		b.Run(sz.name, func(b *testing.B) {
			// The graph is built lazily, once per size, inside the first
			// task sub-benchmark that actually runs — a -bench filter for
			// one task never pays for (or measures) the others.
			var g *awakemis.Graph
			graphBytes := 0.0
			build := func() {
				if g != nil {
					return
				}
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				g = awakemis.GNP(sz.n, 4/float64(sz.n), int64(sz.n))
				runtime.GC()
				runtime.ReadMemStats(&after)
				graphBytes = float64(after.HeapAlloc) - float64(before.HeapAlloc)
			}
			for _, task := range tasks {
				b.Run(task, func(b *testing.B) {
					build()
					n := float64(sz.n)
					var ms0, ms1 runtime.MemStats
					runtime.ReadMemStats(&ms0)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := runOn(g, task, awakemis.Options{Seed: int64(i)}); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					runtime.ReadMemStats(&ms1)
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/node")
					b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(b.N)/n, "alloc-B/node")
					b.ReportMetric(graphBytes/n, "graph-B/node")
				})
			}
		})
	}
}
