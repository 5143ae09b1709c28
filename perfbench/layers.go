package main

import (
	"context"
	"sync"
	"time"

	"awakemis"
)

// layerAcc sums what the traced run measures in the graph, sim, task,
// verify and report layers. Times and counts are divided by reports
// (the reports whose Run calls were traced) when printed.
type layerAcc struct {
	mu sync.Mutex

	reports   float64 // reports produced by traced Run calls
	laneNodes float64 // Σ graph nodes × lanes over those Run calls

	genS, genAllocB, genNodes float64

	runS, taskAllocB, taskMallocs float64

	roundS                               float64 // merged-round time, each merged round once
	rounds, awake, sent, delivered, bits float64 // summed over lanes
	maxLanes                             int

	verifyS, verifies             float64
	encodeS, reportBytes, encodes float64
}

// passObs watches one traced Run call. The vector engine reports a
// merged round to each lane's observer in turn, so consecutive
// observations of one round number by distinct lanes form one pass,
// whose wall time counts once.
type passObs struct {
	mu         sync.Mutex
	open       bool
	round      int64
	lanes      uint64 // bit set of lanes seen in the open pass
	start, end time.Time

	mergedNS                             int64
	rounds, awake, sent, delivered, bits int64
	maxLanes                             int
}

type laneObs struct {
	p    *passObs
	lane int
}

func (o laneObs) ObserveRound(st awakemis.RoundStat) {
	now := time.Now()
	p := o.p
	p.mu.Lock()
	defer p.mu.Unlock()
	bit := uint64(1) << (o.lane % 64)
	if !p.open || st.Round != p.round || p.lanes&bit != 0 {
		p.flush()
		p.open, p.round, p.lanes = true, st.Round, 0
		p.start, p.end = now.Add(-time.Duration(st.ElapsedNS)), now
	}
	p.lanes |= bit
	if s := now.Add(-time.Duration(st.ElapsedNS)); s.Before(p.start) {
		p.start = s
	}
	p.end = now
	p.rounds++
	p.awake += int64(st.Awake)
	p.sent += st.Sent
	p.delivered += st.Delivered
	p.bits += st.Bits
}

// flush closes the open pass. Callers hold p.mu.
func (p *passObs) flush() {
	if !p.open {
		return
	}
	p.mergedNS += p.end.Sub(p.start).Nanoseconds()
	n := 0
	for l := p.lanes; l != 0; l &= l - 1 {
		n++
	}
	p.maxLanes = max(p.maxLanes, n)
	p.open = false
}

// tracedRun calls awakemis.Run under a "run" span, observing every lane
// and the allocations the call makes. With trials nil it is a plain
// one-lane run. n is the graph's node count.
func (b *bench) tracedRun(ctx context.Context, op, parent int, spec awakemis.Spec, n int, trials []awakemis.Trial, out []*awakemis.Report) (*awakemis.Report, error) {
	p := &passObs{}
	var opts []awakemis.RunOption
	lanes := 1
	if trials == nil {
		opts = append(opts, awakemis.WithObserver(laneObs{p, 0}))
	} else {
		lanes = len(trials)
		for i := range trials {
			trials[i].Observer = laneObs{p, i}
		}
		opts = append(opts, awakemis.WithVectorizedTrials(trials, out))
	}
	rt0 := readRuntime()
	start := time.Now()
	rep, err := awakemis.Run(ctx, spec, opts...)
	end := time.Now()
	rt := readRuntime().sub(rt0)
	b.tr.span(op, parent, "run", start, end)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.flush()
	p.mu.Unlock()

	a := b.lay
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reports += float64(lanes)
	a.laneNodes += float64(n * lanes)
	a.runS += end.Sub(start).Seconds()
	a.taskAllocB += float64(rt.allocBytes)
	a.taskMallocs += float64(rt.allocObjects)
	a.roundS += float64(p.mergedNS) / 1e9
	a.rounds += float64(p.rounds)
	a.awake += float64(p.awake)
	a.sent += float64(p.sent)
	a.delivered += float64(p.delivered)
	a.bits += float64(p.bits)
	a.maxLanes = max(a.maxLanes, p.maxLanes)
	return rep, nil
}

// tracedGenerate builds the spec's graph through awakemis.Generate, the
// same call Run makes internally, under a "graph.gen" span. The graph
// layer's numbers count only when count is set (the run it stands for
// was traced).
func (b *bench) tracedGenerate(op int, gs awakemis.GraphSpec, runSeed int64, count bool) (*awakemis.Graph, error) {
	seed := gs.Seed
	if seed == 0 {
		seed = runSeed
	}
	rt0 := readRuntime()
	start := time.Now()
	g, err := awakemis.Generate(gs.Family, awakemis.GenOptions{N: gs.N, P: gs.P, Degree: gs.Degree, Radius: gs.Radius, Seed: seed})
	end := time.Now()
	rt := readRuntime().sub(rt0)
	if err != nil || !count || b.lay == nil {
		return g, err
	}
	b.tr.span(op, 0, "graph.gen", start, end)
	a := b.lay
	a.mu.Lock()
	defer a.mu.Unlock()
	a.genS += end.Sub(start).Seconds()
	a.genAllocB += float64(rt.allocBytes)
	a.genNodes += float64(g.N())
	return g, nil
}

// tracedVerify checks an MIS output with awakemis.Verify under a
// "verify" span.
func (b *bench) tracedVerify(op int, g *awakemis.Graph, inMIS []bool, count bool) error {
	start := time.Now()
	err := awakemis.Verify(g, inMIS)
	end := time.Now()
	if err != nil || !count || b.lay == nil {
		return err
	}
	b.tr.span(op, 0, "verify", start, end)
	b.lay.mu.Lock()
	b.lay.verifyS += end.Sub(start).Seconds()
	b.lay.verifies++
	b.lay.mu.Unlock()
	return nil
}

// tracedEncode marshals a report with Report.JSON under an "encode" span.
func (b *bench) tracedEncode(op, parent int, rep *awakemis.Report, count bool) ([]byte, error) {
	start := time.Now()
	data, err := rep.JSON()
	end := time.Now()
	if err != nil || !count || b.lay == nil {
		return data, err
	}
	b.tr.span(op, parent, "encode", start, end)
	b.lay.mu.Lock()
	b.lay.encodeS += end.Sub(start).Seconds()
	b.lay.reportBytes += float64(len(data))
	b.lay.encodes++
	b.lay.mu.Unlock()
	return data, nil
}
