// BenchmarkObserverOverhead prices the round-telemetry hook: the same
// Luby run without an observer ("off") versus one attached with
// WithObserver ("on").
// CI's bench job compares the two ns/op against the <=5% overhead
// budget — the hook runs once per executed round, never per node or
// per message, so the gap must vanish as n grows.
//
//	go test -bench 'BenchmarkObserverOverhead' -benchmem
package awakemis_test

import (
	"context"
	"testing"

	"awakemis"
)

// countingObserver is the cheapest possible consumer: the benchmark
// measures the engines' cost of producing RoundStats, not any sink.
type countingObserver struct{ rounds int64 }

func (o *countingObserver) ObserveRound(awakemis.RoundStat) { o.rounds++ }

func BenchmarkObserverOverhead(b *testing.B) {
	for _, sz := range []struct {
		name string
		n    int
	}{{"n=4k", 4096}, {"n=1M", 1 << 20}} {
		b.Run(sz.name, func(b *testing.B) {
			n := sz.n
			g := awakemis.GNP(n, 4/float64(n), int64(n))
			run := func(b *testing.B, opts ...awakemis.RunOption) {
				opts = append(opts, awakemis.WithGraph(g))
				var last awakemis.Metrics
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					spec := awakemis.Spec{Task: string(awakemis.Luby), Options: awakemis.Options{Seed: int64(i)}}
					res, err := awakemis.Run(context.Background(), spec, opts...)
					if err != nil {
						b.Fatal(err)
					}
					last = res.Metrics
				}
				b.ReportMetric(float64(last.Rounds), "rounds")
			}
			b.Run("off", func(b *testing.B) { run(b) })
			b.Run("on", func(b *testing.B) {
				obs := &countingObserver{}
				run(b, awakemis.WithObserver(obs))
				if obs.rounds == 0 {
					b.Fatal("observer saw no rounds")
				}
			})
		})
	}
}
