package ldtmis

// Step form of LDT-MIS: hello, LDT construction, ranking, chunked
// permutation broadcast and VT-MIS, running as continuations on a
// sim.Machine, so the vector engine executes it natively. RunSubStep is
// also the building block Awake-MIS embeds into its phase windows.

import (
	"math/rand"

	"awakemis/internal/ldt"
	"awakemis/internal/misproto"
	"awakemis/internal/sim"
	"awakemis/internal/vtmis"
)

// RunSubStep executes LDT-MIS as a sub-procedure over rounds
// [base, base+Span(...)), driven by m. rnd is the node's private
// randomness stream (sim.NodeEnv.Rand) and bandwidth the run's CONGEST
// budget. Entry/exit contract matches vtmis.RunSubStep: call it at the
// end of an awake round strictly before base; k runs inside the final
// awake round's receive continuation with the node's MIS decision in
// *state and its new small ID (its permutation entry, returned for
// verification) as argument. id must be unique among participants.
func RunSubStep(m *sim.Machine, rnd *rand.Rand, bandwidth int, base int64, id int64, np int, v Variant, state *misproto.State, k func(newID int)) {
	p := ldt.NewSProc(m, rnd, base, id, np)
	p.Hello(func() {
		construct := func(then func()) {
			if v == VariantRound {
				p.ConstructRound(constructPhases(v, np), then)
			} else {
				p.ConstructAwake(constructPhases(v, np), then)
			}
		}
		construct(func() {
			p.Rank(func(rank, total int) {
				payloadBits, chunkBits, numChunks := permChunks(np, bandwidth)
				width := permWidth(np)
				var payload []byte
				if p.IsRoot() {
					payload = buildPermPayload(rnd, total, width, payloadBits)
				}
				p.BroadcastChunks(payload, payloadBits, chunkBits, numChunks, func(data []byte) {
					newID := decodeNewID(data, rank, width)
					vtmis.RunSubStep(m, p.Cursor(), newID, np, state, p.Active(), func() {
						k(newID)
					})
				})
			})
		})
	})
}

// stepNode is the standalone per-node state machine: round 0 is the
// model's initial all-awake round (nothing to send), and the LDT
// session occupies rounds from base 1.
type stepNode struct {
	sim.Machine
	env *sim.NodeEnv
	res *Result
	id  int64
	np  int
	v   Variant
}

// StepProgram returns the standalone per-node program.
func StepProgram(res *Result, ids []int64, np int, v Variant) sim.StepProgram {
	return func(env *sim.NodeEnv) sim.StepNode {
		return &stepNode{env: env, res: res, id: ids[env.ID], np: np, v: v}
	}
}

func (n *stepNode) Start(out *sim.Outbox) {
	n.Begin(out, func() {
		n.Yield(0, nil, func([]sim.Inbound) {
			state := misproto.Undecided
			RunSubStep(&n.Machine, n.env.Rand, n.env.Bandwidth, 1, n.id, n.np, n.v, &state, func(newID int) {
				n.res.NewID[n.env.ID] = newID
				n.res.InMIS[n.env.ID] = state == misproto.InMIS
			})
		})
	})
}
