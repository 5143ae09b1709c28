package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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
// streams compare deterministically, and Nodes copied out of the
// engine's reused storage.
type statRecorder struct{ stats []RoundStat }

func (r *statRecorder) ObserveRound(st RoundStat) {
	st.Elapsed = 0
	st.Nodes = slices.Clone(st.Nodes)
	r.stats = append(r.stats, st)
}

// runVectorLanes runs progs as the lanes of one merged pass at the
// given worker count.
func runVectorLanes(g *graph.Graph, progs []StepProgram, cfgs []Config, workers int) ([]*Metrics, error) {
	for i := range cfgs {
		cfgs[i].Workers = workers
	}
	return RunLanes(context.Background(), g, progs, cfgs)
}

// TestVectorMatchesScalar is the vector engine's determinism contract:
// every lane of a merged run produces Metrics and an observer stream
// bit-identical to a one-worker, one-lane run of the same (graph,
// program, seed) — at several worker counts, on graphs dense and
// sparse. Every other lane sets NodeDetail, so the per-lane awake id
// lists split out of the merged pass are held to the one-lane lists
// while their neighbors carry none.
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
				m, err := RunStep(g, vecProbe, Config{Seed: seed, Workers: 1, Observer: rec, NodeDetail: len(wantMS)%2 == 0})
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
				cfgs[i] = Config{Seed: seed, Observer: recs[i], NodeDetail: i%2 == 0}
			}
			ms, err := runVectorLanes(g, progs, cfgs, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", gname, workers, err)
			}
			for i := range seeds {
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
		ms, err := runVectorLanes(g, []StepProgram{vecProbe}, []Config{{Seed: 11}}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if d := metricsDigest(t, ms[0]); d != singleLaneDigest {
			t.Errorf("workers=%d: metrics digest %s, frozen %s", workers, d, singleLaneDigest)
		}
	}
}

// TestVectorLaneFailure: one lane panicking fails the whole merged run
// with the failing node's error, and every lane still reports how far
// it got.
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
	ms, err := runVectorLanes(g, []StepProgram{steady, boom}, []Config{{Seed: 1}, {Seed: 2}}, 2)
	if err == nil || !strings.Contains(err.Error(), "node 3") || !strings.Contains(err.Error(), "lane blew up") {
		t.Fatalf("err = %v, want the merged run to fail at node 3", err)
	}
	for i, m := range ms {
		if m == nil || m.Rounds != 3 {
			t.Fatalf("lane %d partial metrics %+v, want 3 rounds", i, m)
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

// TestRunLanesArgumentChecks: every malformed lane set is rejected
// before any lane's program is called.
func TestRunLanesArgumentChecks(t *testing.T) {
	g := graph.Cycle(8)
	called := false
	prog := StepProgram(func(env *NodeEnv) StepNode {
		called = true
		return vecProbe(env)
	})
	for _, tc := range []struct {
		name  string
		progs []StepProgram
		cfgs  []Config
	}{
		{"no-lanes", nil, nil},
		{"len-mismatch", []StepProgram{prog, prog}, []Config{{}}},
		{"N-too-small", []StepProgram{prog}, []Config{{N: 4}}},
		{"N", []StepProgram{prog, prog}, []Config{{N: 16}, {N: 32}}},
		{"Bandwidth", []StepProgram{prog, prog}, []Config{{Bandwidth: 40}, {Bandwidth: 41}}},
		{"Strict", []StepProgram{prog, prog}, []Config{{Strict: true}, {}}},
		{"MaxRounds", []StepProgram{prog, prog}, []Config{{}, {MaxRounds: 100}}},
		{"Workers", []StepProgram{prog, prog, prog}, []Config{{Workers: 1}, {Workers: 1}, {Workers: 2}}},
	} {
		called = false
		ms, err := RunLanes(context.Background(), g, tc.progs, tc.cfgs)
		if err == nil || ms != nil || called {
			t.Errorf("%s: err = %v, metrics %v, program called %v; want an error before any program runs", tc.name, err, ms, called)
		}
	}
	// Agreement is judged after defaults are filled: an explicit N equal
	// to the node count agrees with the zero default.
	if _, err := RunLanes(context.Background(), g, []StepProgram{prog, prog}, []Config{{}, {N: 8, Seed: 1}}); err != nil {
		t.Fatalf("defaulted lanes disagree: %v", err)
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
