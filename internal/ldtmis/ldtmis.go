// Package ldtmis implements Algorithm LDT-MIS (§5.3, Lemma 11) and its
// round-efficient sibling LDT-MIS-ROUND (Corollary 12): compute an
// LFMIS with respect to a uniformly random node ordering, in O(log n′)
// awake rounds even when node IDs come from a huge space I ≫ n′.
//
// The pipeline on each connected participant component of at most np
// nodes: (1) build a labeled distance tree; (2) rank the nodes and
// learn the exact component size; (3) the root draws a uniformly
// random permutation and ships it down in O((n′ log n′)/log I) chunked
// broadcasts; (4) each node adopts the permutation entry at its rank as
// a fresh small ID and runs VT-MIS with those IDs.
//
// The node program is a step machine (RunSubStep / StepProgram, built
// on internal/ldt's resumable SProc ops), which the vector engine
// executes inline with no per-node goroutine. Its outputs and metrics
// are held to digests frozen from the goroutine-form original it was
// ported from.
package ldtmis

import (
	"fmt"
	"math/rand"

	"awakemis/internal/bitio"
	"awakemis/internal/graph"
	"awakemis/internal/ldt"
	"awakemis/internal/sim"
)

// Variant selects the LDT construction.
type Variant int

const (
	// VariantAwake uses the randomized O(log n′)-awake construction
	// (Theorem 13 pipeline).
	VariantAwake Variant = iota
	// VariantRound uses the deterministic Appendix A construction
	// (Corollary 14 pipeline).
	VariantRound
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v == VariantRound {
		return "round"
	}
	return "awake"
}

// constructPhases returns the phase budget for the variant.
func constructPhases(v Variant, np int) int {
	if v == VariantRound {
		return ldt.DefaultRoundPhases(np)
	}
	return ldt.DefaultAwakePhases(np)
}

// permWidth is the fixed bit width of one permutation entry.
func permWidth(np int) int { return bitio.UintBits(uint64(np)) }

// buildPermPayload is the root's side of the permutation shipment: a
// uniformly random permutation of [1, total], each entry in width
// bits, null-filled to payloadBits per §5.3. Pure (no wake points).
func buildPermPayload(rnd *rand.Rand, total, width, payloadBits int) []byte {
	perm := rnd.Perm(total)
	var w bitio.Writer
	for _, v := range perm {
		w.WriteUint(uint64(v+1), width)
	}
	for w.Len() < payloadBits {
		w.WriteUint(0, 1) // null filler per §5.3
	}
	return w.Bytes()
}

// decodeNewID extracts the rank-th width-bit permutation entry from
// the reassembled payload: the node's new small ID.
func decodeNewID(data []byte, rank, width int) int {
	r := bitio.NewReader(data)
	newID := 0
	for i := 0; i < rank; i++ {
		u, err := r.ReadUint(width)
		if err != nil {
			panic(fmt.Sprintf("ldtmis: permutation decode: %v", err))
		}
		newID = int(u)
	}
	return newID
}

// permChunks returns the chunk geometry for shipping an np-entry
// permutation under the given bandwidth.
func permChunks(np, bandwidth int) (payloadBits, chunkBits, numChunks int) {
	payloadBits = np * permWidth(np)
	chunkBits = bandwidth / 2
	if chunkBits < 1 {
		chunkBits = 1
	}
	numChunks = ldt.NumChunks(payloadBits, chunkBits)
	return payloadBits, chunkBits, numChunks
}

// Span returns the total number of rounds RunSubStep occupies from its
// base round, for schedule pre-computation by composing algorithms
// (Awake-MIS sizes its phases with this).
func Span(np, bandwidth int, v Variant) int64 {
	var construct int64
	if v == VariantRound {
		construct = ldt.SpanConstructRound(np, constructPhases(v, np))
	} else {
		construct = ldt.SpanConstructAwake(np, constructPhases(v, np))
	}
	_, _, numChunks := permChunks(np, bandwidth)
	return 1 + // hello
		construct +
		ldt.SpanRank(np) +
		ldt.SpanBroadcastChunks(np, numChunks) +
		int64(np) // VT-MIS window
}

// Result collects standalone outputs.
type Result struct {
	InMIS []bool
	// NewID[v] is the random small ID node v drew; within each
	// component the output is the LFMIS with respect to ascending
	// NewID.
	NewID []int
}

// Prepare checks the IDs and returns standalone LDT-MIS's step program
// for g and the Result it fills as the run completes. Every node
// participates, with the provided unique IDs (from an arbitrarily large
// space) and a common component-size bound np ≥ the largest component
// of g.
func Prepare(g *graph.Graph, ids []int64, np int, v Variant) (sim.StepProgram, *Result, error) {
	if len(ids) != g.N() {
		return nil, nil, fmt.Errorf("ldtmis: %d ids for %d nodes", len(ids), g.N())
	}
	seen := make(map[int64]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			return nil, nil, fmt.Errorf("ldtmis: duplicate id %d", id)
		}
		seen[id] = true
	}
	res := &Result{InMIS: make([]bool, g.N()), NewID: make([]int, g.N())}
	return StepProgram(res, ids, np, v), res, nil
}
