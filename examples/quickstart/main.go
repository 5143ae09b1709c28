// Quickstart: run the paper's O(log log n)-awake MIS through the task
// registry, inspect the Report envelope, and print its JSON wire form.
package main

import (
	"context"
	"fmt"
	"log"

	"awakemis"
)

func main() {
	// The task registry is the API surface: every problem in the
	// repository is one registered Task.
	fmt.Println("registered tasks:")
	for _, t := range awakemis.Tasks() {
		fmt.Printf("  %-16s %s\n", t.Name, t.Summary)
	}

	// A sparse random graph on 1024 nodes (average degree ~4).
	g := awakemis.GNP(1024, 4.0/1024, 1)
	fmt.Println("\ninput:", g)

	spec := awakemis.Spec{Task: "awake-mis", Options: awakemis.Options{
		Seed:   42,
		Strict: true, // enforce the O(log n)-bit CONGEST bound
	}}
	rep, err := awakemis.Run(context.Background(), spec, awakemis.WithGraph(g))
	if err != nil {
		log.Fatal(err)
	}

	misSize := 0
	for _, in := range rep.Output.InMIS {
		if in {
			misSize++
		}
	}
	m := rep.Metrics
	fmt.Printf("MIS size:          %d (verified: %v)\n", misSize, rep.Verified)
	fmt.Printf("worst-case awake:  %d rounds  <- the O(log log n) quantity\n", m.MaxAwake)
	fmt.Printf("node-avg awake:    %.1f rounds\n", m.AvgAwake)
	fmt.Printf("round complexity:  %d rounds (%d actually executed;\n", m.Rounds, m.ExecutedRounds)
	fmt.Printf("                   in the rest, every node was asleep)\n")
	fmt.Printf("communication:     %d messages, %d bits total\n", m.MessagesSent, m.BitsSent)
	fmt.Printf("wall time:         %.1fms on the %s engine\n", rep.WallMS, rep.Engine)

	// The same envelope, machine-readable: this is what
	// `cmd/awakemis -json` and the batch Runner emit.
	rep.Output.InMIS = rep.Output.InMIS[:8] // truncate for display only
	data, err := rep.JSON()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nReport JSON (output truncated to 8 nodes):\n%s\n", data)
}
