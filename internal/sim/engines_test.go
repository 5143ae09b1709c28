// Digest checks of the determinism contract: step programs on the
// vector engine, at several worker and lane counts, against the
// digests frozen from their goroutine-form twins on the retired
// lockstep reference engine (see simtest.CheckForms).
package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"awakemis/internal/graph"
	"awakemis/internal/sim"
	"awakemis/internal/simtest"
)

// num is a small test message carrying one integer.
type num int64

func (num) Bits() int { return 16 }

// twin is a step program that records no output beyond Metrics: the
// step-form twin of a retired goroutine-form program.
func twin(sp sim.StepProgram) simtest.Case {
	return func() (sim.StepProgram, func() any) { return sp, nil }
}

// stepper adapts a start function and a wake function to a StepNode.
type stepper struct {
	start func(out *sim.Outbox)
	wake  func(round int64, inbox []sim.Inbound, out *sim.Outbox) (int64, bool)
}

func (s stepper) Start(out *sim.Outbox) {
	if s.start != nil {
		s.start(out)
	}
}

func (s stepper) OnWake(round int64, inbox []sim.Inbound, out *sim.Outbox) (int64, bool) {
	return s.wake(round, inbox, out)
}

// flood broadcasts for a fixed number of rounds, then halts.
func flood(rounds int64) sim.StepProgram {
	return func(env *sim.NodeEnv) sim.StepNode {
		return stepper{
			start: func(out *sim.Outbox) { out.Broadcast(num(0)) },
			wake: func(round int64, _ []sim.Inbound, out *sim.Outbox) (int64, bool) {
				if round == rounds-1 {
					return 0, true
				}
				out.Broadcast(num(round + 1))
				return round + 1, false
			},
		}
	}
}

// TestStepProgramAcrossEngines holds a flood on the vector engine grid
// to the digest the lockstep engine froze for it.
func TestStepProgramAcrossEngines(t *testing.T) {
	g := graph.Grid(8, 8)
	m := simtest.CheckForms(t, "flood/grid", g, twin(flood(5)), sim.Config{Seed: 3})
	if m.Rounds != 5 || m.MaxAwake != 5 {
		t.Errorf("rounds/maxawake = %d/%d, want 5/5", m.Rounds, m.MaxAwake)
	}
	want := int64(5 * 2 * g.M())
	if m.MessagesSent != want || m.MessagesDelivered != want {
		t.Errorf("messages = %d/%d, want %d", m.MessagesSent, m.MessagesDelivered, want)
	}
}

// TestStepMatchesGoroutineForm holds a flood to the digest its
// goroutine-form twin (broadcast, deliver, advance, five times) froze.
func TestStepMatchesGoroutineForm(t *testing.T) {
	simtest.CheckForms(t, "flood/cycle", graph.Cycle(12), twin(flood(5)), sim.Config{Seed: 9})
}

// TestGoroutineProgramsAcrossEngines holds the step twins of the
// goroutine form's tricky control-flow paths — immediate sleep,
// immediate halt, halting mid-compute (staged sends must still
// transmit), clock skipping, and randomness-driven schedules — to the
// digests their originals froze, on graphs with and without edges.
func TestGoroutineProgramsAcrossEngines(t *testing.T) {
	cases := map[string]simtest.Case{
		"sleep-at-start": twin(func(env *sim.NodeEnv) sim.StepNode {
			return stepper{wake: func(round int64, _ []sim.Inbound, _ *sim.Outbox) (int64, bool) {
				return 5, env.ID != 0 || round == 5
			}}
		}),
		"halt-immediately": twin(func(env *sim.NodeEnv) sim.StepNode {
			return stepper{wake: func(round int64, _ []sim.Inbound, _ *sim.Outbox) (int64, bool) {
				return round + 1, env.ID%2 == 0 || round == 2
			}}
		}),
		"return-mid-compute": twin(func(env *sim.NodeEnv) sim.StepNode {
			return stepper{wake: func(round int64, _ []sim.Inbound, out *sim.Outbox) (int64, bool) {
				out.Broadcast(num(7))
				return 1, round == 1
			}}
		}),
		"clock-skip": twin(func(env *sim.NodeEnv) sim.StepNode {
			return stepper{wake: func(round int64, _ []sim.Inbound, _ *sim.Outbox) (int64, bool) {
				return 1_000_000 + int64(env.ID), round > 0
			}}
		}),
		"random-schedule": twin(func(env *sim.NodeEnv) sim.StepNode {
			rnd, i := env.Rand, 0
			return stepper{
				start: func(out *sim.Outbox) { out.Broadcast(num(rnd.Int63n(100))) },
				wake: func(round int64, in []sim.Inbound, out *sim.Outbox) (int64, bool) {
					if i == 6 {
						return 0, true // six broadcast rounds done
					}
					next := round + 1
					if len(in) > 0 && rnd.Int63n(2) == 0 {
						next += rnd.Int63n(5)
					}
					if i++; i < 6 {
						out.Broadcast(num(rnd.Int63n(100)))
					}
					return next, false
				},
			}
		}),
		"talk-then-listen": twin(func(env *sim.NodeEnv) sim.StepNode {
			if env.ID < 4 {
				return stepper{wake: func(round int64, in []sim.Inbound, _ *sim.Outbox) (int64, bool) {
					if round == 2 && env.ID == 0 && len(in) != 0 {
						panic("should hear nothing in a skipped round")
					}
					return 2, round == 2
				}}
			}
			return stepper{
				start: func(out *sim.Outbox) { out.Broadcast(num(1)) },
				wake: func(round int64, _ []sim.Inbound, out *sim.Outbox) (int64, bool) {
					out.Broadcast(num(2))
					return 1, round == 1
				},
			}
		}),
	}
	graphs := map[string]*graph.Graph{
		"cycle": graph.Cycle(10),
		"star":  graph.Star(9),
		"empty": graph.New(6),
	}
	for pname, c := range cases {
		for gname, g := range graphs {
			t.Run(pname+"/"+gname, func(t *testing.T) {
				simtest.CheckForms(t, pname+"/"+gname, g, c, sim.Config{Seed: 11})
			})
		}
	}
}

// TestFuzzEquivalence drives a randomized program over randomized
// graphs and holds its metrics and per-node receive transcripts to
// the digests its goroutine-form twin froze.
func TestFuzzEquivalence(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		seed := int64(100 + trial)
		g := graph.GNP(40, 0.12, rand.New(rand.NewSource(seed)))
		mk := func() (sim.StepProgram, func() any) {
			sums := make([]int64, g.N())
			sp := sim.StepProgram(func(env *sim.NodeEnv) sim.StepNode {
				rnd, v, i := env.Rand, env.ID, 0
				send := func(out *sim.Outbox) {
					if rnd.Int63n(3) > 0 {
						out.Broadcast(num(rnd.Int63n(1000)))
					}
				}
				return stepper{
					start: send,
					wake: func(round int64, in []sim.Inbound, out *sim.Outbox) (int64, bool) {
						if i == 8 {
							return 0, true // eight rounds done
						}
						for _, m := range in {
							sums[v] += int64(m.Msg.(num)) * int64(m.Port+1)
						}
						if rnd.Int63n(4) == 0 {
							return 0, true
						}
						next := round + 1 + rnd.Int63n(3)
						if i++; i < 8 {
							send(out)
						}
						return next, false
					},
				}
			})
			return sp, func() any { return sums }
		}
		simtest.CheckForms(t, fmt.Sprintf("fuzz/graph=%d", seed), g, mk, sim.Config{Seed: seed})
	}
}
