// Sensornet: the paper's motivating scenario (§1.2). A battery-powered
// wireless sensor network — modeled as a random geometric graph — needs
// a maximal independent set to elect cluster heads. Radios dominate the
// energy budget, and a radio listening idly costs almost as much as one
// transmitting, so what matters is how many rounds each sensor must be
// awake, not how many rounds the protocol takes.
//
// This example compares the energy profile of Luby's classical
// algorithm (every undecided node awake every round) against Awake-MIS
// and translates awake rounds into battery figures. Both runs share a
// deployment deadline: a context bounds how long the simulation itself
// may take.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"awakemis"
)

const (
	// Representative radio energy figures (order-of-magnitude, per
	// round): an awake round costs ~1000 units (listen/transmit draw
	// nearly the same, per Feeney–Nilsson 2001), a sleeping round ~1.
	awakeCost = 1000.0
	sleepCost = 1.0
)

func main() {
	// 2000 sensors scattered on the unit square, radio radius 0.045
	// (average degree ~12).
	g := awakemis.RandomGeometric(2000, 0.045, 7)
	fmt.Println("sensor field:", g)

	// Simulations abort (with an error wrapping the deadline) rather
	// than run away — the service-shaped entry point.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	for _, task := range []string{"luby", "awake-mis"} {
		spec := awakemis.Spec{Task: task, Options: awakemis.Options{Seed: 7}}
		rep, err := awakemis.Run(ctx, spec, awakemis.WithGraph(g))
		if err != nil {
			log.Fatal(err)
		}
		m := rep.Metrics

		heads := 0
		for _, in := range rep.Output.InMIS {
			if in {
				heads++
			}
		}
		// Worst-case node battery: its awake rounds at awakeCost, the
		// rest of the protocol asleep at sleepCost.
		worst := float64(m.MaxAwake)*awakeCost + float64(m.Rounds-m.MaxAwake)*sleepCost
		avg := m.AvgAwake*awakeCost + (float64(m.Rounds)-m.AvgAwake)*sleepCost

		fmt.Printf("\n%s:\n", task)
		fmt.Printf("  cluster heads elected:  %d\n", heads)
		fmt.Printf("  worst-case awake:       %d rounds\n", m.MaxAwake)
		fmt.Printf("  protocol length:        %d rounds\n", m.Rounds)
		fmt.Printf("  worst node energy:      %.0f units\n", worst)
		fmt.Printf("  average node energy:    %.0f units\n", avg)
	}

	fmt.Println("\nNote: Awake-MIS trades a much longer (mostly sleeping) protocol for")
	fmt.Println("a worst-case awake count that barely grows with the network size —")
	fmt.Println("the asymptotic O(log log n) vs O(log n) separation of the paper.")
}
