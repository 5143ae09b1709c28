package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"awakemis/internal/graph"
)

// spinNode wakes every round forever: the worst case for cancellation,
// since the run would otherwise only stop at MaxRounds.
type spinNode struct{}

func (spinNode) Start(out *Outbox) {}
func (spinNode) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	return round + 1, false
}

func spinStepProgram() StepProgram {
	return func(env *NodeEnv) StepNode { return spinNode{} }
}

// cancelEngines is the grid the cancellation contract covers: the
// one-lane vector engine at several worker counts.
func cancelEngines() map[string]Config {
	return map[string]Config{
		"stepped-1": {Workers: 1},
		"stepped-4": {Workers: 4},
	}
}

// panicAtRound panics on every node once round r is reached — a
// mid-run abort that exercises the engine's failure path.
func panicAtRound(r int64) StepProgram {
	return func(env *NodeEnv) StepNode {
		return stepFunc(func(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
			if round >= r {
				panic("boom")
			}
			return round + 1, false
		})
	}
}

// TestCancelMidRunBothEngines cancels spinning runs mid-flight at each
// worker count of the one engine.
func TestCancelMidRunBothEngines(t *testing.T) {
	g := graph.Cycle(64)
	for ename, base := range cancelEngines() {
		t.Run(ename+"/step-form", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(10 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			m, err := RunStepContext(ctx, g, spinStepProgram(), Config{Seed: 1, Workers: base.Workers})
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if elapsed > 5*time.Second {
				t.Fatalf("cancellation took %v; not prompt", elapsed)
			}
			if m == nil {
				t.Fatal("metrics should describe the partial run")
			}
			// The run was killed mid-flight: it must have made progress
			// but not reached the MaxRounds backstop.
			if m.Rounds < 1 || m.Rounds >= 1<<40 {
				t.Errorf("partial rounds = %d", m.Rounds)
			}
		})
	}
}

func TestDeadlineExceededBothEngines(t *testing.T) {
	g := graph.Cycle(32)
	for ename, base := range cancelEngines() {
		t.Run(ename, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			_, err := RunStepContext(ctx, g, spinStepProgram(), Config{Seed: 2, Workers: base.Workers})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
		})
	}
}

func TestPreCancelledContextRunsNothing(t *testing.T) {
	g := graph.Cycle(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for ename, base := range cancelEngines() {
		m, err := RunStepContext(ctx, g, spinStepProgram(), Config{Seed: 3, Workers: base.Workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", ename, err)
		}
		if m != nil && m.ExecutedRounds > 0 {
			t.Errorf("%s: executed %d rounds under a dead context", ename, m.ExecutedRounds)
		}
	}
}

// TestAbortedRunsLeakNoGoroutines: every way a run can abort mid-round
// — context cancellation, deadline, per-node panic, the MaxRounds
// backstop — must join every goroutine the run started (the vector
// engine's worker pool) before Run returns. A leak of even one per run compounds
// quickly under the service daemon's batch traffic, so the test drives
// many aborted runs and requires the goroutine count to settle back to
// baseline.
func TestAbortedRunsLeakNoGoroutines(t *testing.T) {
	g := graph.Cycle(96)
	baseline := runtime.NumGoroutine()

	for ename, base := range cancelEngines() {
		spin, panicky := spinStepProgram(), panicAtRound(50)
		for i := 0; i < 5; i++ {
			// Context cancelled mid-round.
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(time.Millisecond)
				cancel()
			}()
			if _, err := RunStepContext(ctx, g, spin, Config{Seed: int64(i), Workers: base.Workers}); err == nil {
				t.Fatalf("%s: cancelled run reported success", ename)
			}
			cancel()

			// Per-node panic mid-round.
			if _, err := RunStepContext(context.Background(), g, panicky, Config{Seed: int64(i), Workers: base.Workers}); err == nil {
				t.Fatalf("%s: panicking run reported success", ename)
			}

			// MaxRounds backstop.
			if _, err := RunStepContext(context.Background(), g, spin, Config{Seed: int64(i), MaxRounds: 64, Workers: base.Workers}); !errors.Is(err, ErrMaxRounds) {
				t.Fatalf("%s: err = %v, want ErrMaxRounds", ename, err)
			}
		}
	}

	// Shutdown joins synchronously, but give the runtime a moment to
	// retire exiting goroutines before declaring a leak.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: baseline %d, now %d after aborted runs; stacks:\n%s",
				baseline, now, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestUncancelledContextHarmless(t *testing.T) {
	// A live context must not perturb results: same metrics with and
	// without one, at every worker count.
	g := graph.Cycle(16)
	prog := spinStepProgram()
	for ename, base := range cancelEngines() {
		cfg := Config{Seed: 4, MaxRounds: 100, Workers: base.Workers}
		_, plain := RunStepContext(context.Background(), g, prog, cfg)
		ctx, cancel := context.WithCancel(context.Background())
		_, withCtx := RunStepContext(ctx, g, prog, cfg)
		cancel()
		if !errors.Is(plain, ErrMaxRounds) || !errors.Is(withCtx, ErrMaxRounds) {
			t.Fatalf("%s: want ErrMaxRounds from both, got %v / %v", ename, plain, withCtx)
		}
	}
}
