package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"awakemis"
)

// solveN is the graph size of a solve-awake-mis operation.
const solveN = 100_000

// solveSpec is operation i of solve-awake-mis: the paper's algorithm on
// a fresh G(n, 4/n) graph with a fresh run seed.
func solveSpec(seed int64, i int) awakemis.Spec {
	return awakemis.Spec{
		Task:    string(awakemis.AwakeMIS),
		Graph:   awakemis.GraphSpec{Family: "gnp", N: solveN, Seed: awakemis.DeriveSeed(seed, "perfbench/solve/graph", int64(i))},
		Options: awakemis.Options{Seed: awakemis.DeriveSeed(seed, "perfbench/solve/run", int64(i))},
	}
}

// solveOutcome is what the checks after the timed phase need from one
// operation.
type solveOutcome struct {
	op     int
	spec   awakemis.Spec
	data   []byte
	inMIS  []bool
	traced bool
}

// solve runs plain one-lane awakemis.Run calls one at a time, each
// encoded with Report.JSON.
func (b *bench) solve() error {
	ctx := context.Background()
	r := &b.res
	// Set-up: warm the engine's pools and the runtime on a small run of
	// the same task, setups times; the first counts from process start.
	for i := 0; i < setups; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		sp := solveSpec(b.seed, -1-i)
		sp.Graph.N = solveN / 10
		if _, err := awakemis.Run(ctx, sp); err != nil {
			return fmt.Errorf("set-up run: %w", err)
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}

	var outs []solveOutcome
	phase := startTimed()
	for i := 0; time.Since(phase.start) < b.dur || (b.tr != nil && i < 2); i++ {
		op := i + 1
		r.attempted++
		spec := solveSpec(b.seed, i)
		// The traced run alternates traced and untraced operations; the
		// two sets give trace.overhead_frac.
		traced := b.tr != nil && i%2 == 0
		var (
			rep  *awakemis.Report
			data []byte
			err  error
		)
		u0 := readUsage()
		start := time.Now()
		if traced {
			root := b.tr.open(op, 0, "spec")
			rep, err = b.tracedRun(ctx, op, root, spec, solveN, nil, nil)
			if err == nil {
				data, err = b.tracedEncode(op, root, rep, true)
			}
			b.tr.close(root)
		} else {
			rep, err = awakemis.Run(ctx, spec)
			if err == nil {
				data, err = rep.JSON()
			}
		}
		lat := time.Since(start).Seconds()
		if err != nil {
			r.failOp(op, "%v", err)
			continue
		}
		r.reports++
		r.opWindow(u0, lat, 1)
		if traced {
			r.tracedS = append(r.tracedS, lat)
		} else {
			r.specS = append(r.specS, lat)
		}
		outs = append(outs, solveOutcome{op: op, spec: spec, data: data, inMIS: rep.Output.InMIS, traced: traced})
	}
	r.add(phase)

	for _, o := range outs {
		if err := b.checkSolve(o); err != nil {
			r.failOp(o.op, "%v", err)
		}
	}
	return nil
}

// checkSolve verifies one operation's Report: the oracle's flag, an
// independent awakemis.Verify on a regenerated graph, and the digest of
// the bytes with wall_ms zeroed.
func (b *bench) checkSolve(o solveOutcome) error {
	var head struct{ Verified bool }
	if err := json.Unmarshal(o.data, &head); err != nil || !head.Verified {
		return fmt.Errorf("report not verified (%v)", err)
	}
	g, err := b.tracedGenerate(o.op, o.spec.Graph, o.spec.Options.Seed, o.traced)
	if err != nil {
		return err
	}
	if err := b.tracedVerify(o.op, g, o.inMIS, o.traced); err != nil {
		return fmt.Errorf("awakemis.Verify: %w", err)
	}
	z := zeroWall(o.data)
	if z == nil {
		return fmt.Errorf("report has no single wall_ms field")
	}
	return b.digests.check(fmt.Sprintf("solve-awake-mis/%d/%d", b.seed, o.op), digest(z))
}
