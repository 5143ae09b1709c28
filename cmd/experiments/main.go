// Command experiments regenerates the paper-reproduction tables: one
// experiment per theorem, lemma, and figure (the index is expt.All in
// internal/expt).
//
// Usage:
//
//	experiments                # run the whole suite
//	experiments -run e1,e7     # selected experiments
//	experiments -quick         # smaller sweeps
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"awakemis/internal/expt"
)

func main() {
	var (
		run     = flag.String("run", "", "comma-separated experiment ids (default: all)")
		quick   = flag.Bool("quick", false, "smaller sweeps")
		seed    = flag.Int64("seed", 1, "random seed")
		trials  = flag.Int("trials", 0, "trials per configuration (0 = default)")
		sizes   = flag.String("sizes", "", "comma-separated n sweep (default: 64,256,1024,4096)")
		workers = flag.Int("workers", 0, "engine worker pool size (0 = one per CPU)")
	)
	flag.Parse()

	// Ctrl-C cancels the suite: every simulation aborts at its next
	// round boundary instead of running to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := expt.Options{
		Seed: *seed, Quick: *quick, Trials: *trials,
		Workers: *workers, Context: ctx,
	}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil || n < 2 {
				fmt.Fprintf(os.Stderr, "bad size %q\n", s)
				os.Exit(1)
			}
			opts.Sizes = append(opts.Sizes, n)
		}
	}

	var selected []expt.Experiment
	if *run == "" {
		selected = expt.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, ok := expt.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; available:\n", id)
				for _, e := range expt.All() {
					fmt.Fprintf(os.Stderr, "  %-3s %s\n", e.ID, e.Title)
				}
				os.Exit(1)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		fmt.Printf("=== %s: %s ===\n", strings.ToUpper(e.ID), e.Title)
		start := time.Now()
		if err := e.Run(opts, os.Stdout); err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "interrupted")
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}
}
