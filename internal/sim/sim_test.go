package sim

import (
	"errors"
	"sync"
	"testing"

	"awakemis/internal/bitio"
	"awakemis/internal/graph"
)

// intMsg is a simple test message carrying one integer.
type intMsg int64

func (m intMsg) Bits() int { return bitio.IntBits(int64(m)) }

// bigMsg reports an arbitrary size regardless of content.
type bigMsg struct{ bits int }

func (m bigMsg) Bits() int { return m.bits }

var (
	_ Message = intMsg(0)
	_ Message = bigMsg{}
)

// collector gathers per-node outputs race-free (worker shards may step
// several nodes at once).
type collector struct {
	mu   sync.Mutex
	vals map[int][]int64
}

func newCollector() *collector { return &collector{vals: map[int][]int64{}} }

func (c *collector) add(node int, v int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.vals[node] = append(c.vals[node], v)
}

// procNode runs one straight-line procedure per node on a Machine: the
// tests' sequential way to write a step program.
type procNode struct {
	Machine
	env  *NodeEnv
	body func(n *procNode)
}

func (n *procNode) Start(out *Outbox) { n.Begin(out, func() { n.body(n) }) }

// proc returns the step program whose every node runs body.
func proc(body func(n *procNode)) StepProgram {
	return func(env *NodeEnv) StepNode { return &procNode{env: env, body: body} }
}

// wakes returns the step program whose every node runs f each awake
// round, staging nothing in round 0.
func wakes(f func(env *NodeEnv, round int64, inbox []Inbound, out *Outbox) (int64, bool)) StepProgram {
	return func(env *NodeEnv) StepNode {
		return stepFunc(func(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
			return f(env, round, inbox, out)
		})
	}
}

func TestPingExchange(t *testing.T) {
	g := graph.Path(2)
	got := newCollector()
	prog := proc(func(n *procNode) {
		id := n.env.ID
		n.Yield(0, func(out *Outbox) { out.Send(0, intMsg(int64(100+id))) }, func(in []Inbound) {
			if len(in) != 1 {
				t.Errorf("node %d: got %d messages, want 1", id, len(in))
				return
			}
			got.add(id, int64(in[0].Msg.(intMsg)))
		})
	})
	m, err := RunStep(g, prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.vals[0][0] != 101 || got.vals[1][0] != 100 {
		t.Errorf("exchange wrong: %v", got.vals)
	}
	if m.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", m.Rounds)
	}
	if m.MaxAwake != 1 || m.TotalAwake != 2 {
		t.Errorf("awake metrics = max %d total %d, want 1/2", m.MaxAwake, m.TotalAwake)
	}
	if m.MessagesSent != 2 || m.MessagesDelivered != 2 {
		t.Errorf("messages = %d sent %d delivered, want 2/2", m.MessagesSent, m.MessagesDelivered)
	}
}

func TestMessageToSleepingNodeIsLost(t *testing.T) {
	g := graph.Path(2)
	got := newCollector()
	send := func(v int64) func(*Outbox) { return func(out *Outbox) { out.Send(0, intMsg(v)) } }
	prog := proc(func(n *procNode) {
		if n.env.ID == 0 {
			// Round 0, then sleep through round 1 and wake in round 2:
			// only the round-2 message may arrive.
			n.Yield(0, nil, func([]Inbound) {
				n.Yield(2, nil, func(in []Inbound) { got.add(0, int64(len(in))) })
			})
			return
		}
		// Node 1: round 0 idle, round 1 send (lost), round 2 send (heard).
		n.Yield(0, nil, func([]Inbound) {
			n.Yield(1, send(7), func([]Inbound) {
				n.Yield(2, send(9), func(in []Inbound) { got.add(1, int64(len(in))) })
			})
		})
	})
	m, err := RunStep(g, prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.vals[0][0] != 1 {
		t.Errorf("node 0 should hear exactly the round-2 message, got %d", got.vals[0][0])
	}
	if m.MessagesSent != 2 || m.MessagesDelivered != 1 {
		t.Errorf("sent %d delivered %d, want 2/1", m.MessagesSent, m.MessagesDelivered)
	}
}

func TestSenderAsleepMessageNotSent(t *testing.T) {
	// A sleeping node cannot send: nothing is delivered to an awake
	// listener from a sleeping neighbor.
	g := graph.Path(2)
	heard := newCollector()
	prog := wakes(func(env *NodeEnv, round int64, in []Inbound, _ *Outbox) (int64, bool) {
		if env.ID == 0 {
			return 4, round > 0 // asleep through rounds 1..3
		}
		heard.add(1, int64(len(in)))
		return round + 1, round == 3
	})
	if _, err := RunStep(g, prog, Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, c := range heard.vals[1] {
		if c != 0 {
			t.Errorf("awake node heard %d messages from sleeping neighbor", c)
		}
	}
}

func TestClockSkipping(t *testing.T) {
	g := graph.New(3)
	prog := wakes(func(_ *NodeEnv, round int64, _ []Inbound, _ *Outbox) (int64, bool) {
		// One more awake round at 1e6, then halt.
		return 1_000_000, round > 0
	})
	m, err := RunStep(g, prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 1_000_001 {
		t.Errorf("Rounds = %d, want 1000001", m.Rounds)
	}
	if m.ExecutedRounds != 2 {
		t.Errorf("ExecutedRounds = %d, want 2 (round 0 and round 1e6)", m.ExecutedRounds)
	}
	if m.MaxAwake != 2 {
		t.Errorf("MaxAwake = %d, want 2", m.MaxAwake)
	}
}

func TestRoundNumbersVisible(t *testing.T) {
	g := graph.New(1)
	var rounds []int64
	next := map[int64]int64{0: 1, 1: 10}
	prog := wakes(func(_ *NodeEnv, round int64, _ []Inbound, _ *Outbox) (int64, bool) {
		rounds = append(rounds, round)
		r, ok := next[round]
		return r, !ok
	})
	if _, err := RunStep(g, prog, Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 1, 10}
	if len(rounds) != len(want) {
		t.Fatalf("rounds = %v, want %v", rounds, want)
	}
	for i := range want {
		if rounds[i] != want[i] {
			t.Errorf("round[%d] = %d, want %d", i, rounds[i], want[i])
		}
	}
}

func TestStrictCongestViolation(t *testing.T) {
	g := graph.Path(2)
	prog := StepProgram(func(*NodeEnv) StepNode { return bigSender{} })
	_, err := RunStep(g, prog, Config{Seed: 1, Strict: true})
	if err == nil {
		t.Fatal("expected bandwidth error")
	}
	var be *BandwidthError
	if !errors.As(err, &be) {
		t.Fatalf("error %v is not a BandwidthError", err)
	}
}

func TestNonStrictAllowsBigMessages(t *testing.T) {
	g := graph.Path(2)
	prog := StepProgram(func(*NodeEnv) StepNode { return bigSender{} })
	m, err := RunStep(g, prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxMessageBits != 10_000 {
		t.Errorf("MaxMessageBits = %d", m.MaxMessageBits)
	}
}

func TestMaxRoundsAborts(t *testing.T) {
	g := graph.New(1)
	prog := wakes(func(_ *NodeEnv, round int64, _ []Inbound, _ *Outbox) (int64, bool) {
		return round + 101, false
	})
	_, err := RunStep(g, prog, Config{Seed: 1, MaxRounds: 500})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestProgramPanicBecomesError(t *testing.T) {
	g := graph.Path(3)
	prog := wakes(func(env *NodeEnv, _ int64, _ []Inbound, _ *Outbox) (int64, bool) {
		if env.ID == 1 {
			panic("boom")
		}
		return 0, true
	})
	_, err := RunStep(g, prog, Config{Seed: 1})
	if err == nil {
		t.Fatal("expected error from panicking program")
	}
}

// TestHalt: a node that returns done stops being metered while the
// others keep running.
func TestHalt(t *testing.T) {
	g := graph.New(2)
	prog := wakes(func(env *NodeEnv, round int64, _ []Inbound, _ *Outbox) (int64, bool) {
		return round + 1, env.ID == 0 || round == 2
	})
	m, err := RunStep(g, prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.AwakePerNode[0] != 1 {
		t.Errorf("halted node awake %d rounds, want 1", m.AwakePerNode[0])
	}
	if m.AwakePerNode[1] != 3 {
		t.Errorf("node 1 awake %d rounds, want 3", m.AwakePerNode[1])
	}
}

func TestDeterministicReplay(t *testing.T) {
	g := graph.Cycle(16)
	run := func() []int64 {
		vals := make([]int64, g.N())
		prog := proc(func(n *procNode) {
			id, rnd := n.env.ID, n.env.Rand
			x := rnd.Int63n(1000)
			n.Yield(0, func(out *Outbox) { out.Broadcast(intMsg(x)) }, func(in []Inbound) {
				sum := x
				for _, m := range in {
					sum += int64(m.Msg.(intMsg))
				}
				vals[id] = sum
				n.Yield(1, nil, func([]Inbound) { vals[id] += rnd.Int63n(10) })
			})
		})
		if _, err := RunStep(g, prog, Config{Seed: 42}); err != nil {
			t.Fatal(err)
		}
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at node %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	g := graph.New(8)
	run := func(seed int64) int64 {
		var mu sync.Mutex
		var total int64
		prog := proc(func(n *procNode) {
			v := n.env.Rand.Int63n(1 << 30)
			mu.Lock()
			total += v
			mu.Unlock()
		})
		if _, err := RunStep(g, prog, Config{Seed: seed}); err != nil {
			t.Fatal(err)
		}
		return total
	}
	if run(1) == run(2) {
		t.Error("different seeds produced identical randomness (unlikely)")
	}
}

func TestInboxSortedByPort(t *testing.T) {
	g := graph.Star(5) // center 0 with 4 leaves
	var ports []int
	prog := proc(func(n *procNode) {
		if n.env.ID == 0 {
			n.Yield(0, nil, func(in []Inbound) {
				for _, m := range in {
					ports = append(ports, m.Port)
				}
			})
			return
		}
		n.Yield(0, func(out *Outbox) { out.Send(0, intMsg(int64(n.env.ID))) }, func([]Inbound) {})
	})
	if _, err := RunStep(g, prog, Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if len(ports) != 4 {
		t.Fatalf("center heard %d messages, want 4", len(ports))
	}
	for i, p := range ports {
		if p != i {
			t.Errorf("inbox[%d].Port = %d, want %d", i, p, i)
		}
	}
}

func TestPortSymmetry(t *testing.T) {
	// A message sent on port p arrives tagged with the receiver's port
	// back to the sender.
	g := graph.Cycle(6)
	bad := newCollector()
	prog := proc(func(n *procNode) {
		id := n.env.ID
		n.Yield(0, func(out *Outbox) { out.Broadcast(intMsg(int64(id))) }, func(in []Inbound) {
			for _, m := range in {
				nb := g.Neighbor(id, m.Port)
				if nb != int(m.Msg.(intMsg)) {
					bad.add(id, int64(nb))
				}
			}
		})
	})
	if _, err := RunStep(g, prog, Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if len(bad.vals) != 0 {
		t.Errorf("port attribution wrong for nodes %v", bad.vals)
	}
}

func TestInvalidPortPanics(t *testing.T) {
	g := graph.Path(2)
	prog := proc(func(n *procNode) {
		n.Yield(0, func(out *Outbox) { out.Send(5, intMsg(1)) }, func([]Inbound) {})
	})
	if _, err := RunStep(g, prog, Config{Seed: 1}); err == nil {
		t.Fatal("expected invalid-port error")
	}
}

func TestNTooSmallRejected(t *testing.T) {
	g := graph.New(10)
	if _, err := RunStep(g, proc(func(*procNode) {}), Config{N: 5}); err == nil {
		t.Fatal("expected error for N < n")
	}
}

func TestDefaultBandwidth(t *testing.T) {
	if b := DefaultBandwidth(1024); b != 16*11+16 {
		t.Errorf("DefaultBandwidth(1024) = %d", b)
	}
	if b := DefaultBandwidth(0); b != 16*2+16 {
		t.Errorf("DefaultBandwidth(0) = %d", b)
	}
}

func TestAvgAwake(t *testing.T) {
	m := &Metrics{AwakePerNode: []int64{1, 3}, TotalAwake: 4}
	if got := m.AvgAwake(); got != 2 {
		t.Errorf("AvgAwake = %v, want 2", got)
	}
	empty := &Metrics{}
	if got := empty.AvgAwake(); got != 0 {
		t.Errorf("empty AvgAwake = %v", got)
	}
}

// floodNode broadcasts in rounds 0..4, is awake once more in round 5,
// then halts.
type floodNode struct{}

func (floodNode) Start(out *Outbox) { out.Broadcast(intMsg(0)) }

func (floodNode) OnWake(round int64, _ []Inbound, out *Outbox) (int64, bool) {
	if round < 4 {
		out.Broadcast(intMsg(round + 1))
	}
	return round + 1, round == 5
}

func TestManyNodesFloodStress(t *testing.T) {
	g := graph.Grid(30, 30)
	prog := StepProgram(func(*NodeEnv) StepNode { return floodNode{} })
	m, err := RunStep(g, prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 6 {
		t.Errorf("Rounds = %d, want 6", m.Rounds)
	}
	wantMsgs := int64(5 * 2 * g.M()) // each edge both directions, 5 rounds
	if m.MessagesSent != wantMsgs {
		t.Errorf("MessagesSent = %d, want %d", m.MessagesSent, wantMsgs)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.New(0)
	m, err := RunStep(g, proc(func(*procNode) {}), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 0 {
		t.Errorf("Rounds = %d, want 0", m.Rounds)
	}
}
