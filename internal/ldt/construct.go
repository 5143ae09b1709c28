package ldt

// This file describes the two LDT constructions and holds their span
// formulas and pure helpers; step_construct.go implements them.
//
// ConstructAwake (randomized; substitution for Theorem 4 of [2], a
// deterministic construction the source paper cites without giving):
// repeated fragment merging where each fragment flips a coin and every
// tails fragment whose minimum outgoing edge points at a heads
// fragment merges into it. Each phase costs O(1) awake rounds per
// node, and O(log n′) phases suffice w.h.p., giving O(log n′) awake
// complexity.
//
// ConstructRound (deterministic; Appendix A): GHS-style phases in which
// every fragment finds its minimum outgoing edge, fragments form
// supergraph trees, a Cole–Vishkin 6-coloring of each tree drives a
// maximal fragment matching, unmatched fragments attach to their
// parent (or a child, at the tree root), and the resulting small-depth
// trees (diameter ≤ 4) merge around their smallest-ID fragment.
// ⌈log₂ n′⌉ + 1 phases merge everything deterministically.

// DefaultAwakePhases returns the default number of randomized merge
// phases for a component bound np: generous enough that all components
// of size ≤ np finish w.h.p. (each fragment merges with probability
// ≥ 1/4 per phase).
func DefaultAwakePhases(np int) int { return 4*log2ceil(np+1) + 12 }

// DefaultRoundPhases returns the number of deterministic GHS phases
// that guarantee completion: fragments at least halve per phase.
func DefaultRoundPhases(np int) int { return log2ceil(np+1) + 1 }

// SpanConstructAwake returns the number of rounds ConstructAwake
// occupies for the given parameters.
func SpanConstructAwake(np, phases int) int64 {
	return int64(phases) * (2*spanAdjacent + 4*spanWindow(np))
}

// crSpanPerPhase mirrors the exact window sequence of one
// ConstructRound phase; a test asserts the implementation consumes
// exactly this many rounds.
func crSpanPerPhase(np int) int64 {
	w := spanWindow(np)
	adj := int64(spanAdjacent)
	s1 := adj + w + w + adj                    // ids, up min edge, down, endpoint exchange
	s2a := w + w                               // mutual upcast, T-root flag downcast
	colorStep := w + adj + w                   // downcast color, adjacent, upcast parent color
	cv := int64(cvIterations+4)*colorStep + w  // 6 CV iters + 2×(shift-down, recolor), final distribute
	match := 6*(w+adj+w+w+adj+w) + w           // per color: m1..m6; then final refresh
	s2e := adj                                 // attach-to-parent notification
	s2f := w + w + adj                         // up, down, notify chosen child
	s3core := int64(coreIters) * (adj + w + w) // core-ID propagation
	s3rel := int64(coreIters) * (adj + w + w)  // relabel waves
	return s1 + s2a + cv + match + s2e + s2f + s3core + s3rel
}

// cvIterations bounds the Cole–Vishkin color-length reduction: from
// 64-bit colors, 6 iterations reach 3-bit colors (64→7→4→3, fixed
// point), matching the O(log* I) bound with I ≤ 2⁶⁴.
const cvIterations = 6

// coreIters covers propagation across the small-depth trees of
// Appendix A stage 3 (fragment diameter ≤ 4, plus slack).
const coreIters = 6

// SpanConstructRound returns the number of rounds ConstructRound
// occupies.
func SpanConstructRound(np, phases int) int64 {
	return int64(phases) * crSpanPerPhase(np)
}

// cvStep performs one Cole–Vishkin bit-reduction step.
func cvStep(color, parent int64) int64 {
	diff := color ^ parent
	i := int64(0)
	for diff != 0 && diff&1 == 0 {
		diff >>= 1
		i++
	}
	return 2*i + (color>>uint(i))&1
}

// syntheticParent gives the tree root a pseudo-parent color differing
// from its own.
func syntheticParent(color int64) int64 {
	if color == 0 {
		return 1
	}
	return 0
}

func colorValIfRoot(t *treeState, color int64) []int64 {
	if t.IsRoot() {
		return []int64{color}
	}
	return nil
}

// mergeFirst keeps the first non-nil upcast value.
func mergeFirst(acc, in []int64) []int64 {
	if acc == nil {
		return in
	}
	return acc
}

// mergeOptPair folds the (parent-color, child-color) optional pairs of
// the Cole–Vishkin color step, -1 encoding "absent".
func mergeOptPair(acc, in []int64) []int64 {
	if acc == nil {
		return in
	}
	out := []int64{acc[0], acc[1]}
	if out[0] < 0 {
		out[0] = in[0]
	}
	if out[1] < 0 {
		out[1] = in[1]
	}
	return out
}

// mergeMinVal keeps the minimum single upcast value.
func mergeMinVal(acc, in []int64) []int64 {
	if acc == nil || (in != nil && in[0] < acc[0]) {
		return in
	}
	return acc
}

// encOpt encodes an optional single-value slice as -1 for absent.
func encOpt(v []int64) int64 {
	if v == nil {
		return -1
	}
	return v[0]
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
