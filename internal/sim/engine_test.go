package sim

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"awakemis/internal/graph"
)

// TestTracerEventStream checks the per-node stream a trace is built
// from: with NodeDetail each observed round lists its awake node ids in
// ascending order, the lists account for every awake node-round, and
// the round deltas sum to the run's message Metrics.
func TestTracerEventStream(t *testing.T) {
	g := graph.Cycle(8)
	obs := &obsLog{}
	prog := proc(func(n *procNode) {
		n.Yield(0, func(out *Outbox) { out.Broadcast(intMsg(1)) }, func([]Inbound) {
			n.Yield(4, func(out *Outbox) { out.Broadcast(intMsg(2)) }, func([]Inbound) {})
		})
	})
	m, err := RunStep(g, prog, Config{Seed: 1, Observer: obs, NodeDetail: true})
	if err != nil {
		t.Fatal(err)
	}
	var awake, sent, delivered int64
	for _, st := range obs.stats {
		if !slices.IsSorted(st.Nodes) || len(st.Nodes) != st.Awake {
			t.Errorf("round %d: nodes %v not an ascending list of %d ids", st.Round, st.Nodes, st.Awake)
		}
		awake += int64(len(st.Nodes))
		sent += st.Sent
		delivered += st.Delivered
	}
	if awake != m.TotalAwake {
		t.Errorf("listed awake node-rounds %d != TotalAwake %d", awake, m.TotalAwake)
	}
	if sent != m.MessagesSent || delivered != m.MessagesDelivered {
		t.Errorf("observed sent/delivered %d/%d != metrics %d/%d", sent, delivered, m.MessagesSent, m.MessagesDelivered)
	}
}

func TestSleepImmediatelyAtStart(t *testing.T) {
	// A node may end round 0 without any sends.
	g := graph.New(2)
	prog := wakes(func(env *NodeEnv, round int64, _ []Inbound, _ *Outbox) (int64, bool) {
		if env.ID == 0 && round == 0 {
			return 5, false
		}
		if env.ID == 0 && round != 5 {
			t.Errorf("woke at %d, want 5", round)
		}
		return 0, true
	})
	m, err := RunStep(g, prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.AwakePerNode[0] != 2 || m.AwakePerNode[1] != 1 {
		t.Errorf("awake = %v, want [2 1]", m.AwakePerNode)
	}
}

func TestHaltedNeighborsDoNotDeadlock(t *testing.T) {
	// One side of every edge halts in round 0; the other keeps sending
	// into the void for many rounds. The engine must neither deadlock
	// nor deliver anything.
	g := graph.CompleteBipartite(4, 4)
	prog := proc(func(n *procNode) {
		if n.env.ID < 4 {
			n.Yield(0, nil, func([]Inbound) {}) // halt after round 0
			return
		}
		var loop func(r int64)
		loop = func(r int64) {
			if r == 50 {
				n.Yield(r, nil, func([]Inbound) {})
				return
			}
			n.Yield(r, func(out *Outbox) { out.Broadcast(intMsg(r)) }, func(in []Inbound) {
				if len(in) > 0 && r > 0 {
					t.Error("received message from halted neighbor")
				}
				loop(r + 1)
			})
		}
		loop(0)
	})
	m, err := RunStep(g, prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Only round 0 delivers: senders 4..7 each reach the four not-yet-
	// halted nodes 0..3 (halting nodes are still awake in round 0).
	if m.MessagesDelivered != 16 {
		t.Errorf("delivered = %d, want 16", m.MessagesDelivered)
	}
}

func TestZeroDegreeBroadcast(t *testing.T) {
	g := graph.New(3)
	prog := proc(func(n *procNode) {
		n.Yield(0, func(out *Outbox) { out.Broadcast(intMsg(1)) }, func(in []Inbound) { // no ports: no-op
			if len(in) != 0 {
				t.Error("isolated node received messages")
			}
		})
	})
	m, err := RunStep(g, prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.MessagesSent != 0 {
		t.Errorf("messages = %d, want 0", m.MessagesSent)
	}
}

func TestLongSparseScheduleMetrics(t *testing.T) {
	// Nodes wake in disjoint singleton rounds; ExecutedRounds must equal
	// the number of distinct wake rounds.
	g := graph.New(5)
	prog := wakes(func(env *NodeEnv, round int64, _ []Inbound, _ *Outbox) (int64, bool) {
		return 1000 + 100*int64(env.ID), round > 0
	})
	m, err := RunStep(g, prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.ExecutedRounds != 6 { // round 0 plus five wake rounds
		t.Errorf("ExecutedRounds = %d, want 6", m.ExecutedRounds)
	}
	if m.Rounds != 1401 {
		t.Errorf("Rounds = %d, want 1401", m.Rounds)
	}
}

// TestSteppedErrorPaths drives the vector engine's failure paths: each
// must surface as an error naming the cause, never a crash or hang.
func TestSteppedErrorPaths(t *testing.T) {
	g := graph.Path(3)

	t.Run("program-panic", func(t *testing.T) {
		sp := StepProgram(func(env *NodeEnv) StepNode {
			return stepFunc(func(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
				if env.ID == 1 {
					panic("boom")
				}
				return 0, true
			})
		})
		_, err := RunStep(g, sp, Config{Seed: 1, Workers: 4})
		if err == nil || !strings.Contains(err.Error(), "node 1") {
			t.Fatalf("err = %v, want node 1 panic", err)
		}
	})

	t.Run("strict-bandwidth", func(t *testing.T) {
		sp := StepProgram(func(env *NodeEnv) StepNode {
			return stepFunc(func(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
				out.Broadcast(bigMsg{bits: 10_000})
				return round + 1, false
			})
		})
		_, err := RunStep(g, sp, Config{Seed: 1, Strict: true, Workers: 4})
		var be *BandwidthError
		if !errors.As(err, &be) {
			t.Fatalf("err = %v, want BandwidthError", err)
		}
	})

	t.Run("strict-bandwidth-step-form", func(t *testing.T) {
		sp := StepProgram(func(env *NodeEnv) StepNode { return &bigSender{} })
		_, err := RunStep(g, sp, Config{Seed: 1, Strict: true, Workers: 4})
		var be *BandwidthError
		if !errors.As(err, &be) {
			t.Fatalf("err = %v, want BandwidthError", err)
		}
	})

	t.Run("max-rounds", func(t *testing.T) {
		sp := StepProgram(func(env *NodeEnv) StepNode {
			return stepFunc(func(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
				return round + 101, false
			})
		})
		_, err := RunStep(g, sp, Config{Seed: 1, MaxRounds: 500, Workers: 4})
		if !errors.Is(err, ErrMaxRounds) {
			t.Fatalf("err = %v, want ErrMaxRounds", err)
		}
	})

	t.Run("invalid-port-step-form", func(t *testing.T) {
		sp := StepProgram(func(env *NodeEnv) StepNode { return &badPortSender{} })
		_, err := RunStep(g, sp, Config{Seed: 1, Workers: 4})
		if err == nil || !strings.Contains(err.Error(), "invalid port") {
			t.Fatalf("err = %v, want invalid port", err)
		}
	})

	t.Run("non-monotone-wake", func(t *testing.T) {
		sp := StepProgram(func(env *NodeEnv) StepNode { return &stuckNode{} })
		_, err := RunStep(g, sp, Config{Seed: 1, Workers: 4})
		if err == nil || !strings.Contains(err.Error(), "not after round") {
			t.Fatalf("err = %v, want schedule error", err)
		}
	})
}

type bigSender struct{}

func (bigSender) Start(out *Outbox) { out.Send(0, bigMsg{bits: 10_000}) }
func (bigSender) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	return 0, true
}

type badPortSender struct{}

func (badPortSender) Start(out *Outbox) {}
func (badPortSender) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	out.Send(99, intMsg(1))
	return round + 1, false
}

type stuckNode struct{}

func (stuckNode) Start(out *Outbox) {}
func (stuckNode) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	return round, false // not after the current round
}

// TestWakeQueueOrder checks the bucket queue pops rounds in order with
// node indices sorted regardless of insertion order.
func TestWakeQueueOrder(t *testing.T) {
	q := newWakeQueue()
	q.add(7, 3)
	q.add(2, 9)
	q.add(7, 1)
	q.add(2, 4)
	q.add(5, 0)
	wantRounds := []int64{2, 5, 7}
	wantNodes := [][]int{{4, 9}, {0}, {1, 3}}
	for i := 0; !q.empty(); i++ {
		r, nodes := q.pop()
		if r != wantRounds[i] {
			t.Fatalf("pop %d: round %d, want %d", i, r, wantRounds[i])
		}
		if !reflect.DeepEqual(nodes, wantNodes[i]) {
			t.Fatalf("pop %d: nodes %v, want %v", i, nodes, wantNodes[i])
		}
		q.recycle(nodes)
	}
}
