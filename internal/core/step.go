package core

// Step form of Awake-MIS: the phase loop as an explicit state machine.
// Each node draws its ID and batch, attends its O(log log n)
// communication rounds (staged one wake at a time through a
// sim.Machine) and, in its own phase, runs the step-form LDT-MIS window
// in place — so the paper's headline algorithm executes on the vector
// engine's inline hot path with no per-node goroutine. Its outputs and
// metrics are held to digests frozen from the goroutine-form original
// it was ported from.

import (
	"awakemis/internal/ldtmis"
	"awakemis/internal/misproto"
	"awakemis/internal/sim"
	"awakemis/internal/vtree"
)

type stepNode struct {
	sim.Machine
	env     *sim.NodeEnv
	res     *Result
	sched   *Schedule
	idSpace int64
	id      int64
	state   misproto.State
	// rounds is the node's communication set (phases it attends).
	rounds  []int
	myPhase int
}

// StepProgram returns the per-node Awake-MIS program.
func StepProgram(res *Result, sched *Schedule, params Params, n int) sim.StepProgram {
	params = params.WithDefaults(n)
	return func(env *sim.NodeEnv) sim.StepNode {
		return &stepNode{env: env, res: res, sched: sched, idSpace: params.IDSpace}
	}
}

func (c *stepNode) Start(out *sim.Outbox) {
	rng := c.env.Rand
	c.id = rng.Int63n(c.idSpace) + 1
	level, j := c.sched.SampleBatch(rng.Float64(), rng.Float64())
	c.myPhase = c.sched.Phase(level, j)
	c.res.Batch[c.env.ID] = c.myPhase
	c.rounds = vtree.AwakeRounds(c.myPhase, c.sched.TotalPhases)

	c.Begin(out, func() {
		if c.sched.PhaseStart(c.rounds[0]) == 0 {
			// Phase 1 is this node's first communication round and starts
			// at round 0, the model's initial all-awake round.
			c.attend(0)
			return
		}
		c.Yield(0, nil, func([]sim.Inbound) { c.attend(0) })
	})
}

// attend stages communication round i of the node's schedule, or
// finishes the node when the schedule is exhausted or the node has
// learned it is not in the MIS (nothing more to learn or announce).
func (c *stepNode) attend(i int) {
	if i >= len(c.rounds) || c.state == misproto.NotInMIS {
		c.res.InMIS[c.env.ID] = c.state == misproto.InMIS
		return // no yield: the node halts
	}
	r := c.rounds[i]
	c.Yield(c.sched.PhaseStart(r), func(out *sim.Outbox) {
		out.Broadcast(misproto.StateMsg{State: c.state})
	}, func(in []sim.Inbound) {
		if c.state == misproto.Undecided {
			for _, m := range in {
				if sm, ok := m.Msg.(misproto.StateMsg); ok && sm.State == misproto.InMIS {
					c.state = misproto.NotInMIS
					break
				}
			}
		}
		if r == c.myPhase && c.state == misproto.Undecided {
			ldtmis.RunSubStep(&c.Machine, c.env.Rand, c.env.Bandwidth,
				c.sched.PhaseStart(r)+1, c.id, c.sched.NP, c.sched.Variant, &c.state,
				func(int) { c.attend(i + 1) })
			return
		}
		c.attend(i + 1)
	})
}
