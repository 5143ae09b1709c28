// Package simtest holds the cross-form check the simulator's test
// suites share: a goroutine-form Program on the lockstep reference
// engine against its step-form port on the vector engine, across the
// vector engine's worker and lane counts.
package simtest

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"awakemis/internal/graph"
	"awakemis/internal/sim"
)

// Case builds one run's programs and a reader for the output they
// record. Every call must return fresh state. A nil gp runs sp on the
// lockstep engine too (as goroutine form); a nil out means
// the programs record nothing beyond Metrics.
type Case func() (gp sim.Program, sp sim.StepProgram, out func() any)

// Workers and Lanes span the vector engine's grid: each worker count
// runs one-lane and three-lane passes.
var (
	Workers = []int{1, 4, runtime.NumCPU()}
	Lanes   = []int{1, 3}
)

// CheckForms runs mk's goroutine form on the lockstep engine at seeds
// cfg.Seed+i for every lane i, then its step form on the vector engine
// at every worker count and lane count, lane i re-seeded to cfg.Seed+i.
// Each lane's Metrics and output must equal the lockstep run at its
// seed. It returns the lockstep Metrics at cfg.Seed.
func CheckForms(t testing.TB, g *graph.Graph, mk Case, cfg sim.Config) *sim.Metrics {
	t.Helper()
	maxLanes := Lanes[len(Lanes)-1]
	wantM := make([]*sim.Metrics, maxLanes)
	wantOut := make([]any, maxLanes)
	for i := range wantM {
		gp, sp, out := mk()
		var prog sim.NodeProgram = gp
		if gp == nil {
			prog = sp
		}
		c := cfg
		c.Seed += int64(i)
		m, err := sim.NewLockstepEngine().Run(context.Background(), g, prog, c)
		if err != nil {
			t.Fatalf("lockstep seed %d: %v", c.Seed, err)
		}
		wantM[i], wantOut[i] = m, read(out)
	}
	for _, workers := range Workers {
		for _, lanes := range Lanes {
			ve := sim.NewVectorEngine(lanes, workers)
			ms := make([]*sim.Metrics, lanes)
			outs := make([]func() any, lanes)
			errs := make([]error, lanes)
			var wg sync.WaitGroup
			for i := range lanes {
				_, sp, out := mk()
				outs[i] = out
				c := cfg
				c.Seed += int64(i)
				wg.Add(1)
				go func() {
					defer wg.Done()
					ms[i], errs[i] = ve.Lane(i).Run(context.Background(), g, sp, c)
				}()
			}
			wg.Wait()
			for i := range lanes {
				if errs[i] != nil {
					t.Fatalf("vector workers=%d lanes=%d lane %d: %v", workers, lanes, i, errs[i])
				}
				if !reflect.DeepEqual(ms[i], wantM[i]) {
					t.Fatalf("vector workers=%d lanes=%d lane %d: metrics diverge from lockstep:\n%+v\nvs\n%+v",
						workers, lanes, i, ms[i], wantM[i])
				}
				if got := read(outs[i]); !reflect.DeepEqual(got, wantOut[i]) {
					t.Fatalf("vector workers=%d lanes=%d lane %d: output diverges from lockstep", workers, lanes, i)
				}
			}
		}
	}
	return wantM[0]
}

func read(out func() any) any {
	if out == nil {
		return nil
	}
	return out()
}
