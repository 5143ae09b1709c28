package expt

import (
	"fmt"
	"io"

	"awakemis"
	"awakemis/internal/core"
	"awakemis/internal/sim"
	"awakemis/internal/stats"
	"awakemis/internal/verify"
	"awakemis/internal/vtree"
)

// runE10 is the ablation study of core.Params, which replaces the
// paper's asymptotic constants at laptop sizes: how the three
// tunable constants of Awake-MIS trade awake complexity against round
// complexity and failure margin. C1 scales batch-level populations,
// Δ′ the per-level batch count (residual-degree budget), NP the
// component bound handed to LDT-MIS (phase length).
func runE10(o Options, w io.Writer) error {
	o = o.withDefaults()
	n := 512
	fmt.Fprintf(w, "Ablation at n=%d, G(n, 4/n): one knob varies, the others hold the test defaults\n", n)
	fmt.Fprintln(w, "(C1=4, Δ'=8, NP=24). Larger NP stretches phases (rounds ↑) and adds merge")
	fmt.Fprintln(w, "phases (awake ↑); larger Δ' adds phases (rounds ↑) but thins batches.")
	tb := &stats.Table{Header: []string{"knob", "value", "maxAwake", "rounds", "execRounds", "phases"}}
	base := core.Params{C1: 4, DeltaPrime: 8, NP: 24}
	type knob struct {
		name string
		vals []int
		set  func(p core.Params, v int) core.Params
	}
	knobs := []knob{
		{"C1", []int{2, 4, 8}, func(p core.Params, v int) core.Params { p.C1 = float64(v); return p }},
		{"DeltaPrime", []int{4, 8, 16}, func(p core.Params, v int) core.Params { p.DeltaPrime = v; return p }},
		{"NP", []int{16, 24, 48}, func(p core.Params, v int) core.Params { p.NP = v; return p }},
	}
	for _, k := range knobs {
		for _, v := range k.vals {
			params := k.set(base, v)
			seed := o.Seed + int64(v)
			rep, err := o.run(string(awakemis.AwakeMIS), workload(n, seed),
				awakemis.Options{Seed: seed, Strict: true, Params: params})
			if err != nil {
				return fmt.Errorf("ablation %s=%d: %w", k.name, v, err)
			}
			m := rep.Metrics
			sched := core.NewSchedule(n, params, sim.DefaultBandwidth(n))
			tb.Add(k.name, v, m.MaxAwake, m.Rounds, m.ExecutedRounds, sched.TotalPhases)
		}
	}
	fmt.Fprint(w, tb)
	return nil
}

// runE12 measures the second §7 extension, maximal matching
// (internal/vtmatch): awake per node bounded by its degree with early
// exit on matching, output equal to greedy over the edge order.
func runE12(o Options, w io.Writer) error {
	o = o.withDefaults()
	fmt.Fprintln(w, "Maximal matching in the sleeping model (§7 extension):")
	fmt.Fprintln(w, "awake ≤ deg+1 per node with early exit; rounds ≤ m.")
	tb := &stats.Table{Header: []string{"n", "m", "matched pairs", "maxAwake", "avgAwake", "rounds"}}
	for _, n := range o.Sizes {
		seed := o.Seed + int64(n)
		g := workload(n, seed)
		rep, err := o.run(awakemis.TaskMatching, g, awakemis.Options{Seed: seed, Strict: true})
		if err != nil {
			return err
		}
		m := rep.Metrics
		tb.Add(n, g.M(), verify.MatchingSize(rep.Output.MatchedWith), m.MaxAwake, m.AvgAwake, m.Rounds)
	}
	fmt.Fprint(w, tb)
	return nil
}

// runE11 measures the §7 future-work extension implemented in
// internal/vtcolor: greedy (Δ+1)-coloring with O(log I) awake rounds.
func runE11(o Options, w io.Writer) error {
	o = o.withDefaults()
	fmt.Fprintln(w, "Greedy (Δ+1)-coloring in the sleeping model (§7 extension):")
	fmt.Fprintln(w, "awake ≤ ⌈log I⌉+2, colors ≤ Δ+1, output equals sequential greedy.")
	tb := &stats.Table{Header: []string{"n", "Δ", "colors", "Δ+1", "maxAwake", "bound", "rounds"}}
	for _, n := range o.Sizes {
		seed := o.Seed + int64(n)
		g := workload(n, seed)
		rep, err := o.run(awakemis.TaskColoring, g, awakemis.Options{Seed: seed, Strict: true})
		if err != nil {
			return err
		}
		m := rep.Metrics
		tb.Add(n, g.MaxDegree(), verify.NumColors(rep.Output.Color), g.MaxDegree()+1,
			m.MaxAwake, vtree.Depth(n)+2, m.Rounds)
	}
	fmt.Fprint(w, tb)
	return nil
}
