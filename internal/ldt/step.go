package ldt

// This file is the LDT session in resumable-step form: instead of
// blocking at each wake point, SProc registers continuations on a
// sim.Machine, so the whole session runs natively on the vector
// engine's inline hot path. Its wakes, messages and RNG draws are held
// to digests frozen from the goroutine-form original it was converted
// from (see the ldtmis and core tests).
//
// Continuation rules (see sim.Machine):
//   - each wake is one Machine.Yield whose send closure stages what the
//     node sends in that round (the node is asleep in between, so the
//     staged state is the state at the wake);
//   - code between two wakes runs inside the earlier wake's receive
//     continuation;
//   - a primitive that skips a conditional wake simply calls its
//     continuation without yielding.

import (
	"math/rand"

	"awakemis/internal/sim"
)

// SProc is a node's participation in one LDT session over a connected
// participant set of at most np nodes, in resumable-step form. All
// participants must construct their SProc with the same base round and
// np; the window cursor then advances identically everywhere, which is
// what synchronizes the schedule without communication.
type SProc struct {
	treeState
	m   *sim.Machine
	rnd *rand.Rand
	cur int64 // next unallocated sim round
}

// NewSProc prepares a step-form LDT session starting at sim round base.
// The caller must be at the end of an awake round strictly before base
// (i.e. inside a Machine continuation). rnd is the node's private
// randomness stream (sim.NodeEnv.Rand).
func NewSProc(m *sim.Machine, rnd *rand.Rand, base int64, id int64, np int) *SProc {
	return &SProc{
		treeState: newTreeState(id, np),
		m:         m,
		rnd:       rnd,
		cur:       base,
	}
}

// Cursor returns the first sim round not consumed by the session so far.
func (p *SProc) Cursor() int64 { return p.cur }

// loopN runs body(i, next) for i = 0..n-1 in continuation-passing
// style, then k. Bodies must call next exactly once, in tail position.
func loopN(n int, body func(i int, next func()), k func()) {
	var it func(int)
	it = func(i int) {
		if i >= n {
			k()
			return
		}
		body(i, func() { it(i + 1) })
	}
	it(0)
}

// Hello runs the one-round participant discovery, then k: everyone
// broadcasts its ID on all ports; the awake senders are exactly the
// participants.
func (p *SProc) Hello(k func()) {
	w := p.cur
	p.cur += spanAdjacent
	p.m.Yield(w, func(out *sim.Outbox) {
		out.Broadcast(opMsg{Kind: kHello, F: []int64{p.id}})
	}, func(in []sim.Inbound) {
		for _, m := range in {
			if om, ok := m.Msg.(opMsg); ok && om.Kind == kHello {
				p.active = append(p.active, m.Port)
				p.nbrID[m.Port] = om.F[0]
			}
		}
		k()
	})
}

// adjacent runs a one-round exchange among participants: if payload is
// non-nil it is broadcast (with the given kind) on all active ports; k
// receives the inbox filtered to messages of that kind.
func (p *SProc) adjacent(kind uint8, payload []int64, k func(in []sim.Inbound)) {
	w := p.cur
	p.cur += spanAdjacent
	p.m.Yield(w, func(out *sim.Outbox) {
		if payload != nil {
			for _, q := range p.active {
				out.Send(q, opMsg{Kind: kind, F: payload})
			}
		}
	}, func(in []sim.Inbound) {
		filtered := in[:0]
		for _, m := range in {
			if om, ok := m.Msg.(opMsg); ok && om.Kind == kind {
				filtered = append(filtered, m)
			}
		}
		k(filtered)
	})
}

// adjacentTargeted runs a one-round exchange in which only the given
// port (if ≥ 0) is sent the payload; k receives every port a payload
// arrived on.
func (p *SProc) adjacentTargeted(port int, payload []int64, k func(got []int)) {
	w := p.cur
	p.cur += spanAdjacent
	p.m.Yield(w, func(out *sim.Outbox) {
		if port >= 0 && payload != nil {
			out.Send(port, opMsg{Kind: kRoot, F: payload})
		}
	}, func(in []sim.Inbound) {
		var got []int
		for _, m := range in {
			if om, ok := m.Msg.(opMsg); ok && om.Kind == kRoot {
				got = append(got, m.Port)
			}
		}
		k(got)
	})
}

// upcast runs one upcast half-window: a node at depth d listens for its
// children's values at offset np-d-1 and sends its merged value to its
// parent at offset np-d. own is the node's contribution (nil for
// none); merge folds child values into the accumulator. k receives the
// node's accumulated value (at the root: the tree-wide aggregate) and
// the per-port child values.
func (p *SProc) upcast(own []int64, merge func(acc, in []int64) []int64, k func(acc []int64, childVals map[int][]int64)) {
	w := p.cur
	p.cur += spanWindow(p.np)
	acc := own
	var childVals map[int][]int64
	sendUp := func() {
		if p.parentPort >= 0 && acc != nil {
			p.m.Yield(w+int64(p.np-p.depth), func(out *sim.Outbox) {
				out.Send(p.parentPort, opMsg{Kind: kUp, F: acc})
			}, func([]sim.Inbound) {
				k(acc, childVals)
			})
			return
		}
		k(acc, childVals)
	}
	if len(p.children) > 0 {
		p.m.Yield(w+int64(p.np-p.depth-1), nil, func(in []sim.Inbound) {
			childVals = map[int][]int64{}
			for _, m := range in {
				om, ok := m.Msg.(opMsg)
				if !ok || om.Kind != kUp {
					continue
				}
				childVals[m.Port] = om.F
				acc = merge(acc, om.F)
			}
			sendUp()
		})
		return
	}
	sendUp()
}

// downcast runs one downcast half-window: a node at depth d receives
// its value from its parent at offset d-1 and sends per-child values at
// offset d. rootVal seeds the root; perChild derives what each child
// receives (nil perChild forwards the node's value unchanged). Nodes
// whose parent sends nothing receive nil and send nothing. k receives
// the node's value.
func (p *SProc) downcast(rootVal []int64, perChild func(mine []int64, port int) []int64, k func(mine []int64)) {
	w := p.cur
	p.cur += spanWindow(p.np)
	var mine []int64
	sendDown := func() {
		if len(p.children) > 0 && mine != nil {
			p.m.Yield(w+int64(p.depth), func(out *sim.Outbox) {
				for _, q := range p.children {
					v := mine
					if perChild != nil {
						v = perChild(mine, q)
					}
					if v != nil {
						out.Send(q, opMsg{Kind: kDown, F: v})
					}
				}
			}, func([]sim.Inbound) {
				k(mine)
			})
			return
		}
		k(mine)
	}
	if p.parentPort < 0 {
		mine = rootVal
		sendDown()
		return
	}
	p.m.Yield(w+int64(p.depth-1), nil, func(in []sim.Inbound) {
		for _, m := range in {
			if om, ok := m.Msg.(opMsg); ok && om.Kind == kDown && m.Port == p.parentPort {
				mine = om.F
			}
		}
		sendDown()
	})
}

// upRelabel runs the first relabel half-window (Appendix A, stage 3b):
// the wave climbs from the attachment node to the old fragment root
// along old-depth offsets, reversing parent pointers. pend non-nil
// marks this node as the attachment initiator. k receives the
// (possibly discovered) pending relabel.
func (p *SProc) upRelabel(pend *pending, k func(*pending)) {
	w := p.cur
	p.cur += spanWindow(p.np)
	send := func() {
		if pend != nil && p.parentPort >= 0 {
			p.m.Yield(w+int64(p.np-p.depth), func(out *sim.Outbox) {
				out.Send(p.parentPort, opMsg{Kind: kRelabel, F: []int64{pend.rootID, int64(pend.depth)}})
			}, func([]sim.Inbound) {
				k(pend)
			})
			return
		}
		k(pend)
	}
	if len(p.children) > 0 {
		p.m.Yield(w+int64(p.np-p.depth-1), nil, func(in []sim.Inbound) {
			for _, m := range in {
				om, ok := m.Msg.(opMsg)
				if !ok || om.Kind != kRelabel || pend != nil {
					continue
				}
				pend = &pending{
					rootID:   om.F[0],
					depth:    int(om.F[1]) + 1,
					parent:   m.Port,
					viaChild: m.Port,
				}
			}
			send()
		})
		return
	}
	send()
}

// downRelabel runs the second relabel half-window: nodes off the
// reversal path learn their new root ID and depth from their (old)
// parent, along old-depth offsets. Then k.
func (p *SProc) downRelabel(pend *pending, k func(*pending)) {
	w := p.cur
	p.cur += spanWindow(p.np)
	send := func() {
		if len(p.children) > 0 && pend != nil {
			p.m.Yield(w+int64(p.depth), func(out *sim.Outbox) {
				for _, q := range p.children {
					out.Send(q, opMsg{Kind: kRelabel, F: []int64{pend.rootID, int64(pend.depth)}})
				}
			}, func([]sim.Inbound) {
				k(pend)
			})
			return
		}
		k(pend)
	}
	if p.parentPort >= 0 {
		p.m.Yield(w+int64(p.depth-1), nil, func(in []sim.Inbound) {
			for _, m := range in {
				om, ok := m.Msg.(opMsg)
				if !ok || om.Kind != kRelabel || m.Port != p.parentPort {
					continue
				}
				if pend == nil {
					pend = &pending{
						rootID:   om.F[0],
						depth:    int(om.F[1]) + 1,
						parent:   p.parentPort,
						viaChild: -1,
					}
				}
			}
			send()
		})
		return
	}
	send()
}

// Rank computes the node's rank in the in-order-style total ordering of
// Appendix A.3 (visit the lowest-port subtree, then the node, then the
// remaining subtrees) and the exact number of nodes in the LDT, then
// k(rank, total). Rank values are 1-based.
func (p *SProc) Rank(k func(rank, total int)) {
	p.upcast([]int64{1}, func(acc, in []int64) []int64 {
		return []int64{acc[0] + in[0]}
	}, func(sizes []int64, childSizes map[int][]int64) {
		mySubtree := sizes[0]
		first := int64(0)
		if len(p.children) > 0 {
			first = childSizes[p.children[0]][0]
		}
		var seed []int64
		if p.IsRoot() {
			seed = []int64{0, mySubtree}
		}
		perChild := func(mine []int64, port int) []int64 {
			x := mine[0]
			if port == p.children[0] {
				return []int64{x, mine[1]}
			}
			off := x + first + 1
			for _, q := range p.children[1:] {
				if q == port {
					break
				}
				off += childSizes[q][0]
			}
			return []int64{off, mine[1]}
		}
		p.downcast(seed, perChild, func(got []int64) {
			if got == nil {
				// Singleton LDT (no parent, no children): seed stands.
				got = []int64{0, mySubtree}
			}
			k(int(got[0]+first+1), int(got[1]))
		})
	})
}

// BroadcastChunks ships a root payload of payloadBits bits to every
// node in numChunks downcast windows of chunkBits bits each. The root
// supplies the payload; k receives the reassembled payload bytes
// (zero-padded to whole bytes) at every node.
func (p *SProc) BroadcastChunks(payload []byte, payloadBits, chunkBits, numChunks int, k func(data []byte)) {
	acc := newBitAccum(payloadBits)
	loopN(numChunks, func(c int, next func()) {
		w := p.cur
		p.cur += spanWindow(p.np)
		var mine *chunkMsg
		forward := func() {
			finish := func() {
				if mine != nil && mine.NBits > 0 {
					acc.append(mine.Data, mine.NBits)
				}
				next()
			}
			if len(p.children) > 0 && mine != nil {
				p.m.Yield(w+int64(p.depth), func(ob *sim.Outbox) {
					for _, q := range p.children {
						ob.Send(q, *mine)
					}
				}, func([]sim.Inbound) {
					finish()
				})
				return
			}
			finish()
		}
		if p.IsRoot() {
			mine = rootChunk(payload, c, chunkBits, payloadBits)
			forward()
			return
		}
		p.m.Yield(w+int64(p.depth-1), nil, func(in []sim.Inbound) {
			for _, m := range in {
				if cm, ok := m.Msg.(chunkMsg); ok && m.Port == p.parentPort {
					cm := cm
					mine = &cm
				}
			}
			forward()
		})
	}, func() {
		k(acc.out)
	})
}
