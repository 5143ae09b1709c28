package trace

import (
	"strings"
	"testing"

	"awakemis/internal/graph"
	"awakemis/internal/sim"
)

// stepNode stages start's sends for round 0 and runs wake each awake
// round.
type stepNode struct {
	v     int
	start func(v int, out *sim.Outbox)
	wake  func(v int, round int64, out *sim.Outbox) (int64, bool)
}

func (n *stepNode) Start(out *sim.Outbox) {
	if n.start != nil {
		n.start(n.v, out)
	}
}

func (n *stepNode) OnWake(round int64, _ []sim.Inbound, out *sim.Outbox) (int64, bool) {
	return n.wake(n.v, round, out)
}

// steps returns the step program whose every node runs start and wake.
func steps(start func(v int, out *sim.Outbox), wake func(v int, round int64, out *sim.Outbox) (int64, bool)) sim.StepProgram {
	return func(env *sim.NodeEnv) sim.StepNode { return &stepNode{v: env.ID, start: start, wake: wake} }
}

// broadcast stages a probe on every port.
func broadcast(_ int, out *sim.Outbox) { out.Broadcast(probe{}) }

// run executes a tiny two-node protocol with a known wake pattern and
// returns the collector.
func run(t *testing.T) *Collector {
	t.Helper()
	c := NewCollector()
	g := graph.Path(2)
	next := map[int64]int64{0: 1, 1: 2, 2: 10}
	prog := steps(nil, func(v int, round int64, out *sim.Outbox) (int64, bool) {
		if v == 1 {
			// Awake round 0 only; the round-1 message from node 0 is lost.
			return 0, true
		}
		// Awake rounds 0,1,2 then 10; send in round 1.
		if round == 0 {
			out.Send(0, probe{})
		}
		r, ok := next[round]
		return r, !ok
	})
	if _, err := sim.RunStep(g, prog, sim.Config{Seed: 1, Tracer: c}); err != nil {
		t.Fatal(err)
	}
	return c
}

type probe struct{}

func (probe) Bits() int { return 1 }

func TestCollectorAwakeRounds(t *testing.T) {
	c := run(t)
	want0 := []int64{0, 1, 2, 10}
	got0 := c.AwakeRounds[0]
	if len(got0) != len(want0) {
		t.Fatalf("node 0 awake %v, want %v", got0, want0)
	}
	for i := range want0 {
		if got0[i] != want0[i] {
			t.Fatalf("node 0 awake %v, want %v", got0, want0)
		}
	}
	if len(c.AwakeRounds[1]) != 1 || c.AwakeRounds[1][0] != 0 {
		t.Errorf("node 1 awake %v, want [0]", c.AwakeRounds[1])
	}
}

func TestCollectorMessageLoss(t *testing.T) {
	c := run(t)
	if c.Sent != 1 || c.Delivered != 0 || c.Lost != 1 {
		t.Errorf("sent/delivered/lost = %d/%d/%d, want 1/0/1", c.Sent, c.Delivered, c.Lost)
	}
	if c.LossRate() != 1 {
		t.Errorf("LossRate = %v, want 1", c.LossRate())
	}
	if c.LostByRound[1] != 1 {
		t.Errorf("loss should be recorded in round 1: %v", c.LostByRound)
	}
	if !strings.Contains(c.Summary(), "1 lost") {
		t.Errorf("summary: %s", c.Summary())
	}
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector()
	if c.LossRate() != 0 {
		t.Error("empty collector loss rate should be 0")
	}
	if c.Intervals(5) != nil {
		t.Error("unknown node should have no intervals")
	}
}

func TestIntervals(t *testing.T) {
	c := run(t)
	iv := c.Intervals(0)
	want := [][2]int64{{0, 2}, {10, 10}}
	if len(iv) != len(want) {
		t.Fatalf("intervals = %v, want %v", iv, want)
	}
	for i := range want {
		if iv[i] != want[i] {
			t.Fatalf("intervals = %v, want %v", iv, want)
		}
	}
}

func TestTimelineRendering(t *testing.T) {
	c := run(t)
	out := c.Timeline([]int{0, 1}, 11)
	if !strings.Contains(out, "rounds 0..10") {
		t.Errorf("timeline header wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline should have 3 lines:\n%s", out)
	}
	// Node 0's row: awake at start and at the end.
	row0 := lines[1]
	if !strings.Contains(row0, "0 |") {
		t.Errorf("row0 = %q", row0)
	}
	if strings.Count(row0, ".")+strings.Count(row0, ":")+strings.Count(row0, "#")+strings.Count(row0, "@") < 2 {
		t.Errorf("row0 should show at least 2 awake cells: %q", row0)
	}
	// Degenerate width falls back.
	if out := c.Timeline([]int{0}, 0); !strings.Contains(out, "|") {
		t.Error("zero width should fall back to default")
	}
}

func TestBusiestNodes(t *testing.T) {
	c := run(t)
	if got := c.BusiestNodes(2); len(got) != 2 || got[0] != 0 {
		t.Errorf("busiest = %v, want [0 1]", got)
	}
	if got := c.BusiestNodes(99); len(got) != 2 {
		t.Errorf("k beyond population should clamp: %v", got)
	}
}

// TestMaxNodesSampling pins the scalability cap: once MaxNodes distinct
// nodes are recorded, further nodes' awake events are counted but not
// stored, and — because round 0 wakes every node in ascending order —
// the sample is exactly the first MaxNodes ids. Global message counters
// are unaffected.
func TestMaxNodesSampling(t *testing.T) {
	c := NewCollector()
	c.MaxNodes = 4
	g := graph.Cycle(16)
	prog := steps(broadcast, func(v int, round int64, out *sim.Outbox) (int64, bool) {
		if round == 0 {
			broadcast(v, out)
		}
		return 1, round == 1
	})
	if _, err := sim.RunStep(g, prog, sim.Config{Seed: 1, Tracer: c}); err != nil {
		t.Fatal(err)
	}
	if len(c.AwakeRounds) != 4 {
		t.Fatalf("sampled %d nodes, want 4", len(c.AwakeRounds))
	}
	for v := 0; v < 4; v++ {
		if len(c.AwakeRounds[v]) != 2 {
			t.Errorf("node %d awake rounds %v, want 2 entries (under-cap behavior unchanged)", v, c.AwakeRounds[v])
		}
	}
	if _, ok := c.AwakeRounds[5]; ok {
		t.Error("node beyond the cap was recorded")
	}
	if c.SkippedEvents != 2*12 {
		t.Errorf("skipped events = %d, want 24", c.SkippedEvents)
	}
	if want := int64(2 * 2 * g.M()); c.Sent != want || c.Delivered != want {
		t.Errorf("global counters perturbed by sampling: sent/delivered = %d/%d, want %d", c.Sent, c.Delivered, want)
	}
	if !strings.Contains(c.Summary(), "capped at 4") {
		t.Errorf("summary should flag the partial sample: %s", c.Summary())
	}
}

// TestDefaultCapUnbounded documents the defaults: NewCollector samples
// at DefaultMaxNodes, and MaxNodes ≤ 0 restores unbounded recording.
func TestDefaultCapUnbounded(t *testing.T) {
	if NewCollector().MaxNodes != DefaultMaxNodes {
		t.Errorf("NewCollector cap = %d, want %d", NewCollector().MaxNodes, DefaultMaxNodes)
	}
	c := NewCollector()
	c.MaxNodes = 0
	for v := 0; v < 100; v++ {
		c.NodeAwake(0, v)
	}
	if len(c.AwakeRounds) != 100 || c.SkippedEvents != 0 {
		t.Errorf("unbounded collector recorded %d nodes, skipped %d", len(c.AwakeRounds), c.SkippedEvents)
	}
}

func TestDensityRow(t *testing.T) {
	if got := densityRow([]int{0, 1, 2, 5}); len([]rune(got)) != 4 {
		t.Errorf("row length wrong: %q", got)
	}
	if got := densityRow([]int{0, 0}); got != "  " {
		t.Errorf("all-zero row = %q", got)
	}
	// High-count rows use the scaled branch.
	got := densityRow([]int{0, 100, 50, 10})
	if []rune(got)[0] != ' ' || []rune(got)[1] != '@' {
		t.Errorf("scaled row = %q", got)
	}
}
