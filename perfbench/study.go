package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"awakemis"
)

// studySpec is the study-lanes StudySpec: two MIS tasks on G(n, 4/n) at
// two sizes, eight trials per cell, so every cell runs as one merged
// 8-lane pass.
func studySpec(seed int64) awakemis.StudySpec {
	return awakemis.StudySpec{
		Name:   "perfbench/study-lanes",
		Tasks:  []string{string(awakemis.Luby), string(awakemis.VTMIS)},
		Sizes:  []int{65_536, 131_072},
		Trials: 8,
		Seed:   awakemis.DeriveSeed(seed, "perfbench/study", 0),
	}
}

// studyOutcome is what the checks after the timed phase need from one
// StudyRunner.Run.
type studyOutcome struct {
	op     int
	data   []byte
	inMIS  [][]bool // per expanded spec, from OnProgress
	traced bool
}

// study runs StudyRunner.Run on one StudySpec per operation and encodes
// each StudyResult to JSON.
func (b *bench) study() error {
	ctx := context.Background()
	r := &b.res
	ss := studySpec(b.seed)
	specs := ss.Resolved().Specs()
	// Set-up: the same grid shape at small sizes, setups times.
	for i := 0; i < setups; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		small := ss
		small.Sizes = []int{2048, 4096}
		res, err := (&awakemis.StudyRunner{}).Run(ctx, small)
		if err == nil {
			_, err = res.JSON()
		}
		if err != nil {
			return fmt.Errorf("set-up study: %w", err)
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}

	var outs []studyOutcome
	var unitS []float64
	phase := startTimed()
	for i := 0; time.Since(phase.start) < b.dur || (b.tr != nil && i < 2); i++ {
		op := i + 1
		r.attempted++
		traced := b.tr != nil && i%2 == 0
		o := studyOutcome{op: op, inMIS: make([][]bool, len(specs)), traced: traced}
		var mu sync.Mutex
		var bad error
		unitMS := make([]float64, len(specs)/ss.Trials)
		runner := &awakemis.StudyRunner{OnProgress: func(p awakemis.Progress) {
			mu.Lock()
			defer mu.Unlock()
			if p.Err != nil || p.Report == nil || !p.Report.Verified {
				if bad == nil {
					bad = fmt.Errorf("spec %d: report missing or unverified (%v)", p.Index, p.Err)
				}
				return
			}
			o.inMIS[p.Index] = p.Report.Output.InMIS
			// A unit (one cell's trials, one merged pass) delivers its
			// reports together; its time is the longest lane's WallMS.
			if traced {
				u := p.Index / ss.Trials
				unitMS[u] = max(unitMS[u], p.Report.WallMS)
				if p.Index%ss.Trials == ss.Trials-1 {
					unitS = append(unitS, unitMS[u]/1e3)
				}
			}
		}}
		tr := b.tr
		if !traced {
			tr = nil
		}
		u0 := readUsage()
		start := time.Now()
		root := tr.open(op, 0, "spec")
		runSpan := tr.open(op, root, "study.run")
		res, err := runner.Run(ctx, ss)
		tr.close(runSpan)
		var data []byte
		if err == nil {
			encStart := time.Now()
			data, err = res.JSON()
			tr.span(op, root, "encode", encStart, time.Now())
		}
		tr.close(root)
		lat := time.Since(start).Seconds()
		if err == nil {
			err = bad
		}
		if err != nil {
			r.failOp(op, "%v", err)
			continue
		}
		r.reports += len(specs)
		r.opWindow(u0, lat, len(specs))
		if traced {
			r.tracedS = append(r.tracedS, lat)
		} else {
			r.specS = append(r.specS, lat)
		}
		o.data = data
		outs = append(outs, o)
	}
	r.add(phase)

	graphs := map[int]*awakemis.Graph{} // by cell, built once
	for _, o := range outs {
		if err := b.digests.check(fmt.Sprintf("study-lanes/%d", b.seed), digest(o.data)); err != nil {
			r.failOp(o.op, "%v", err)
		}
		for i, sp := range specs {
			g := graphs[i/ss.Trials]
			if g == nil {
				var err error
				if g, err = awakemis.Generate(sp.Graph.Family, awakemis.GenOptions{N: sp.Graph.N, Seed: sp.Graph.Seed}); err != nil {
					return err
				}
				graphs[i/ss.Trials] = g
			}
			if err := awakemis.Verify(g, o.inMIS[i]); err != nil {
				r.failOp(o.op, "spec %d: awakemis.Verify: %v", i, err)
			}
		}
	}
	if b.tr == nil {
		return nil
	}

	// Layer measurements for the traced run: study.* from the traced
	// operations, then each cell re-run through Run with
	// WithVectorizedTrials to observe the sim, task, graph, verify and
	// report layers on the same work.
	var runS []float64
	var artifact float64
	for _, o := range outs {
		if !o.traced {
			continue
		}
		for _, s := range b.tr.Spans() {
			if s.Op == o.op && s.Name == "study.run" {
				runS = append(runS, s.dur().Seconds())
			}
		}
		artifact = float64(len(o.data))
	}
	r.layers = map[string]float64{
		"study.run_s":          median(runS),
		"study.unit_s_p50":     median(unitS),
		"study.artifact_bytes": artifact,
	}
	graphs = nil
	op := r.attempted
	for lo := 0; lo < len(specs); lo += ss.Trials {
		op++
		unit := specs[lo : lo+ss.Trials]
		g, err := b.tracedGenerate(op, unit[0].Graph, 0, true)
		if err != nil {
			return err
		}
		trials := make([]awakemis.Trial, len(unit))
		for j, sp := range unit {
			trials[j] = awakemis.Trial{Seed: sp.Options.Seed, Name: sp.Name}
		}
		reps := make([]*awakemis.Report, len(unit))
		root := b.tr.open(op, 0, "cell")
		_, err = b.tracedRun(ctx, op, root, unit[0], g.N(), trials, reps)
		if err == nil {
			for _, rep := range reps {
				if _, err = b.tracedEncode(op, root, rep, true); err != nil {
					break
				}
			}
		}
		b.tr.close(root)
		if err != nil {
			r.problem("re-running cell %s: %v", unit[0].Name, err)
			continue
		}
		for j, rep := range reps {
			if err := b.tracedVerify(op, g, rep.Output.InMIS, true); err != nil {
				r.problem("re-run %s: awakemis.Verify: %v", unit[j].Name, err)
			}
		}
	}
	return nil
}
