// Frequency: assign radio frequencies (colors) to wireless sensors so
// no two neighbors share one — the classical application of distributed
// (Δ+1)-coloring, here run in the sleeping model with the §7 extension
// of the paper's virtual-binary-tree technique: every sensor needs only
// O(log n) awake rounds to pick a conflict-free frequency. The run goes
// through the task registry ("coloring") and reads the Report envelope.
package main

import (
	"context"
	"fmt"
	"log"

	"awakemis"
)

func main() {
	// A dense sensor deployment: interference radius 0.08 on the unit
	// square gives average degree ~25.
	g := awakemis.RandomGeometric(1500, 0.08, 3)
	fmt.Println("interference graph:", g)

	spec := awakemis.Spec{Task: awakemis.TaskColoring, Options: awakemis.Options{Seed: 3, Strict: true}}
	rep, err := awakemis.Run(context.Background(), spec, awakemis.WithGraph(g))
	if err != nil {
		log.Fatal(err)
	}

	channels := map[int]int{}
	for _, c := range rep.Output.Color {
		channels[c]++
	}
	fmt.Printf("\nfrequencies used:   %d (Δ+1 bound: %d)\n", len(channels), rep.Graph.MaxDegree+1)
	fmt.Printf("worst-case awake:   %d rounds (the O(log n) guarantee)\n", rep.Metrics.MaxAwake)
	fmt.Printf("protocol length:    %d rounds\n", rep.Metrics.Rounds)
	fmt.Printf("verified proper:    %v (%.1fms on the %s engine)\n", rep.Verified, rep.WallMS, rep.Engine)

	fmt.Println("\nchannel load (sensors per frequency):")
	for c := 0; c < len(channels); c++ {
		if channels[c] > 0 {
			bar := channels[c] / 8
			fmt.Printf("  ch %2d: %4d %s\n", c, channels[c], repeat('#', bar))
		}
	}
}

func repeat(ch byte, n int) string {
	if n < 0 {
		n = 0
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = ch
	}
	return string(b)
}
