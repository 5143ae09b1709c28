package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"awakemis/internal/graph"
)

// vecProbeNode is a randomness-driven step node: it broadcasts with a
// coin flip, sleeps a random number of rounds between wakes, and halts
// after a fixed number of awake rounds — exercising lane interleaving,
// sleeping receivers (message loss), and staggered halts.
type vecProbeNode struct {
	rnd  *rand.Rand
	left int
}

func (n *vecProbeNode) Start(out *Outbox) {
	if n.rnd.Intn(2) == 0 {
		out.Broadcast(emptyMsg{})
	}
}

func (n *vecProbeNode) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	n.left--
	if n.left <= 0 {
		return 0, true
	}
	if n.rnd.Intn(3) > 0 {
		out.Broadcast(emptyMsg{})
	}
	return round + 1 + int64(n.rnd.Intn(3)), false
}

var vecProbe StepProgram = func(env *NodeEnv) StepNode {
	return &vecProbeNode{rnd: env.Rand, left: 6 + env.Rand.Intn(4)}
}

// statRecorder collects the observer stream with wall times zeroed, so
// streams compare deterministically.
type statRecorder struct{ stats []RoundStat }

func (r *statRecorder) ObserveRound(st RoundStat) {
	st.Elapsed = 0
	r.stats = append(r.stats, st)
}

// runVectorLanes drives a vectorized run the way the facade does: one
// goroutine per lane, each entering through its lane handle.
func runVectorLanes(t *testing.T, g *graph.Graph, progs []StepProgram, cfgs []Config, workers int) ([]*Metrics, []error) {
	t.Helper()
	ve := NewVectorEngine(len(progs), workers)
	ms := make([]*Metrics, len(progs))
	errs := make([]error, len(progs))
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms[i], errs[i] = ve.Lane(i).Run(context.Background(), g, progs[i], cfgs[i])
		}(i)
	}
	wg.Wait()
	return ms, errs
}

// TestVectorMatchesScalar is the vector engine's determinism contract:
// every lane of a merged run produces Metrics and an observer stream
// bit-identical to a one-worker, one-lane run of the same (graph,
// program, seed) — at several worker counts, on graphs dense and
// sparse.
func TestVectorMatchesScalar(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"cycle": graph.Cycle(64),
		"gnp":   graph.GNP(96, 0.08, rand.New(rand.NewSource(5))),
		"grid":  graph.Grid(8, 8),
	}
	seeds := []int64{3, 101, -7, 42}
	for gname, g := range graphs {
		for _, workers := range []int{1, 4} {
			var wantMS []*Metrics
			var wantObs [][]RoundStat
			for _, seed := range seeds {
				rec := &statRecorder{}
				m, err := soloEngine{workers: 1}.Run(context.Background(), g, vecProbe,
					Config{Seed: seed, Observer: rec})
				if err != nil {
					t.Fatalf("%s: one-lane seed %d: %v", gname, seed, err)
				}
				wantMS = append(wantMS, m)
				wantObs = append(wantObs, rec.stats)
			}

			progs := make([]StepProgram, len(seeds))
			cfgs := make([]Config, len(seeds))
			recs := make([]*statRecorder, len(seeds))
			for i, seed := range seeds {
				progs[i] = vecProbe
				recs[i] = &statRecorder{}
				cfgs[i] = Config{Seed: seed, Observer: recs[i]}
			}
			ms, errs := runVectorLanes(t, g, progs, cfgs, workers)
			for i := range seeds {
				if errs[i] != nil {
					t.Fatalf("%s workers=%d lane %d: %v", gname, workers, i, errs[i])
				}
				if !reflect.DeepEqual(ms[i], wantMS[i]) {
					t.Errorf("%s workers=%d lane %d metrics diverge:\nmerged %+v\none-lane %+v",
						gname, workers, i, ms[i], wantMS[i])
				}
				if !reflect.DeepEqual(recs[i].stats, wantObs[i]) {
					t.Errorf("%s workers=%d lane %d observer stream diverges from the one-lane run", gname, workers, i)
				}
			}
		}
	}
}

// singleLaneDigest is the SHA-256 of the Metrics JSON of vecProbe on a
// 32-cycle at seed 11, frozen from the retired lockstep reference
// engine.
const singleLaneDigest = "a6a76d89bc70bef57452792809a64d0f796e07645e5c59cc3c5f92fa00388d75"

func metricsDigest(t *testing.T, m *Metrics) string {
	t.Helper()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestVectorSingleLane pins the one-lane pass — every plain run — to
// its frozen digest at several worker counts.
func TestVectorSingleLane(t *testing.T) {
	g := graph.Cycle(32)
	for _, workers := range []int{1, 4} {
		ms, errs := runVectorLanes(t, g, []StepProgram{vecProbe}, []Config{{Seed: 11}}, workers)
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		if d := metricsDigest(t, ms[0]); d != singleLaneDigest {
			t.Errorf("workers=%d: metrics digest %s, frozen %s", workers, d, singleLaneDigest)
		}
	}
}

// TestVectorLaneFailure: one lane panicking fails the whole merged run
// deterministically — every lane surfaces the same error.
func TestVectorLaneFailure(t *testing.T) {
	g := graph.Cycle(8)
	boom := StepProgram(func(env *NodeEnv) StepNode {
		return stepFunc(func(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
			if round == 2 && env.ID == 3 {
				panic("lane blew up")
			}
			return round + 1, false
		})
	})
	steady := StepProgram(func(env *NodeEnv) StepNode {
		return stepFunc(func(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
			return round + 1, round >= 10
		})
	})
	ms, errs := runVectorLanes(t, g, []StepProgram{steady, boom}, []Config{{Seed: 1}, {Seed: 2}}, 2)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("lane %d: expected the merged run to fail, got metrics %+v", i, ms[i])
		}
		if errs[0].Error() != err.Error() {
			t.Fatalf("lanes disagree on the failure: %v vs %v", errs[0], err)
		}
	}
}

// stepFunc adapts a function to a StepNode that stages nothing at
// start.
type stepFunc func(round int64, inbox []Inbound, out *Outbox) (int64, bool)

func (stepFunc) Start(out *Outbox) {}
func (f stepFunc) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	return f(round, inbox, out)
}

// TestVectorAbortUnblocksLanes: when a lane errors before reaching its
// engine call, Abort releases the lanes already waiting at the
// rendezvous with the abort error instead of deadlocking.
func TestVectorAbortUnblocksLanes(t *testing.T) {
	g := graph.Cycle(8)
	ve := NewVectorEngine(2, 1)
	cause := errors.New("lane 1 never arrived")
	done := make(chan error, 1)
	go func() {
		_, err := ve.Lane(0).Run(context.Background(), g, vecProbe, Config{Seed: 1})
		done <- err
	}()
	ve.Abort(cause)
	if err := <-done; !errors.Is(err, cause) {
		t.Fatalf("waiting lane returned %v, want %v", err, cause)
	}
	// Lanes arriving after the abort see it too.
	if _, err := ve.Lane(1).Run(context.Background(), g, vecProbe, Config{Seed: 2}); !errors.Is(err, cause) {
		t.Fatalf("late lane returned %v, want %v", err, cause)
	}
}

// TestVectorRoundZeroAllocs pins the engine's steady-state invariant:
// once buffers have grown to their steady-state capacity, a full round
// — lane detection, per-lane metering, one-pass routing through the
// shared reverse-port cursors, inbox sorting, the step fan-out, and
// rescheduling — performs zero heap allocations with nil observers. It
// covers a 4-lane merged pass at 512 packed entries (≥ minParallel, so
// workers=4 exercises the pool). A regression here (a closure creeping
// into the hot path, sort.Slice, per-round goroutines, inbox
// reallocation) fails the test rather than silently costing 10x at
// n=10⁷.
func TestVectorRoundZeroAllocs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkRoundZeroAllocs(t, 4, workers)
		})
	}
}

// TestSteppedRoundZeroAllocs holds the same invariant for the one-lane
// pass every plain (stepped) run takes, again at 512 entries.
func TestSteppedRoundZeroAllocs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkRoundZeroAllocs(t, 1, workers)
		})
	}
}

// checkRoundZeroAllocs warms a lanes-lane pass over 512 packed entries
// and fails if a steady-state round allocates.
func checkRoundZeroAllocs(t *testing.T, lanes, workers int) {
	t.Helper()
	g := graph.Cycle(512 / lanes)
	progs := make([]StepProgram, lanes)
	cfgs := make([]Config, lanes)
	for i := range progs {
		progs[i] = allocProbe
		cfg, err := Config{Seed: int64(i + 1)}.withDefaults(g.N())
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = cfg
	}
	vs, err := newVecState(g, progs, cfgs, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer vs.close()

	// Warm up: grow the inbox buffers for both round parities, the wake
	// queue's bucket pool, and the outbox slices.
	for i := 0; i < 8; i++ {
		if err := vs.round(workers); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := vs.round(workers); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state round allocates %.1f objects/round, want 0", avg)
	}
}
