package sim

import (
	"reflect"
	"slices"
	"testing"

	"awakemis/internal/graph"
)

// obsLog records every RoundStat it observes, copying Nodes out of the
// engine's reused storage.
type obsLog struct {
	stats []RoundStat
}

func (o *obsLog) ObserveRound(st RoundStat) {
	st.Nodes = slices.Clone(st.Nodes)
	o.stats = append(o.stats, st)
}

// staggerNode broadcasts every awake round and sleeps id%3 extra rounds
// between wakes, so the schedule loses messages to sleeping receivers
// and skips rounds where nobody is awake — exercising every RoundStat
// field.
type staggerNode struct {
	id     int
	rounds int64
}

func (s *staggerNode) Start(out *Outbox) { out.Broadcast(intMsg(0)) }

func (s *staggerNode) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	if round >= s.rounds {
		return 0, true
	}
	out.Broadcast(intMsg(round))
	return round + 1 + int64(s.id%3), false
}

var staggerProg StepProgram = func(env *NodeEnv) StepNode {
	return &staggerNode{id: env.ID, rounds: 20}
}

// TestObserverTotalsMatchMetrics pins the observer identity: summing
// the per-round deltas over all observed rounds reproduces the final
// Metrics exactly at several worker counts, and the deterministic
// RoundStat fields, the NodeDetail id lists included, are bit-identical
// across them.
func TestObserverTotalsMatchMetrics(t *testing.T) {
	g := graph.Grid(16, 16)
	var ref []RoundStat
	var refName string
	for name, base := range map[string]Config{
		"stepped-1":  {Workers: 1},
		"stepped-4":  {Workers: 4},
		"stepped-16": {Workers: 16},
	} {
		obs := &obsLog{}
		m, err := RunStep(g, staggerProg, Config{Seed: 11, Workers: base.Workers, Observer: obs, NodeDetail: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sent, delivered, bits, awake int64
		prev := int64(-1)
		for _, st := range obs.stats {
			if st.Round <= prev {
				t.Fatalf("%s: rounds not strictly increasing: %d after %d", name, st.Round, prev)
			}
			prev = st.Round
			sent += st.Sent
			delivered += st.Delivered
			bits += st.Bits
			awake += int64(st.Awake)
		}
		if int64(len(obs.stats)) != m.ExecutedRounds {
			t.Errorf("%s: observed %d rounds, metrics executed %d", name, len(obs.stats), m.ExecutedRounds)
		}
		if last := obs.stats[len(obs.stats)-1]; last.Round+1 != m.Rounds {
			t.Errorf("%s: last observed round %d, metrics rounds %d", name, last.Round, m.Rounds)
		}
		if sent != m.MessagesSent || delivered != m.MessagesDelivered || bits != m.BitsSent {
			t.Errorf("%s: observer totals sent/delivered/bits = %d/%d/%d, metrics %d/%d/%d",
				name, sent, delivered, bits, m.MessagesSent, m.MessagesDelivered, m.BitsSent)
		}
		if awake != m.TotalAwake {
			t.Errorf("%s: observer awake total %d, metrics %d", name, awake, m.TotalAwake)
		}
		if delivered == sent {
			t.Errorf("%s: schedule lost no messages; test is not exercising losses", name)
		}
		if ref == nil {
			ref, refName = obs.stats, name
			continue
		}
		if len(ref) != len(obs.stats) {
			t.Fatalf("round count diverges: %s=%d vs %s=%d", refName, len(ref), name, len(obs.stats))
		}
		for i := range ref {
			a, b := ref[i], obs.stats[i]
			a.Elapsed, b.Elapsed = 0, 0 // wall time is the only nondeterministic field
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("round stat %d diverges: %s=%+v vs %s=%+v", i, refName, a, name, b)
			}
		}
	}
}

// TestObserverMetricsUnchanged asserts that attaching an observer never
// perturbs the run itself: metrics are bit-identical with and without.
func TestObserverMetricsUnchanged(t *testing.T) {
	g := graph.Cycle(64)
	bare, err := RunStep(g, staggerProg, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := RunStep(g, staggerProg, Config{Seed: 5, Observer: &obsLog{}})
	if err != nil {
		t.Fatal(err)
	}
	if bare.MessagesSent != observed.MessagesSent || bare.Rounds != observed.Rounds ||
		bare.TotalAwake != observed.TotalAwake || bare.BitsSent != observed.BitsSent {
		t.Errorf("observer perturbed the run: bare=%+v observed=%+v", bare, observed)
	}
}

// TestObserverRoundAllocs extends the zero-allocation guard to the
// observer hook: with the observer nil the round loop still allocates
// nothing (the probe is a single branch), and with a recording observer
// attached the budget is at most one allocation per round (the
// observer's own append, amortized).
func TestObserverRoundAllocs(t *testing.T) {
	run := func(t *testing.T, obs RoundObserver, budget float64) {
		g := graph.Cycle(512)
		cfg, err := Config{Seed: 7, Observer: obs}.withDefaults(g.N())
		if err != nil {
			t.Fatal(err)
		}
		vs, err := newVecState(g, []StepProgram{allocProbe}, []Config{cfg}, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer vs.close()
		for i := 0; i < 8; i++ {
			if err := vs.round(1); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(100, func() {
			if err := vs.round(1); err != nil {
				t.Fatal(err)
			}
		})
		if avg > budget {
			t.Errorf("steady-state round allocates %.2f objects/round, budget %.0f", avg, budget)
		}
	}
	t.Run("nil-observer", func(t *testing.T) { run(t, nil, 0) })
	t.Run("attached", func(t *testing.T) { run(t, &obsLog{}, 1) })
}
