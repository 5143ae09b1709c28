package ldt

// This file holds the span formulas and pure helpers of the
// post-construction LDT operations of §5.2 / Appendix A.3 (implemented
// on SProc in step.go): ranking (each node learns its rank in a total
// order of the tree plus the exact tree size, Lemma 9) and chunked
// root broadcasts (Fragment-Broadcast generalized to multi-message
// payloads, used to ship the random permutation in LDT-MIS). Both cost
// O(1) awake rounds per window.

// SpanRank returns the rounds consumed by Rank.
func SpanRank(np int) int64 { return 2 * spanWindow(np) }

// NumChunks returns how many chunk windows a payload of payloadBits
// needs when each message may carry at most chunkBits.
func NumChunks(payloadBits, chunkBits int) int {
	if payloadBits <= 0 {
		return 0
	}
	return (payloadBits + chunkBits - 1) / chunkBits
}

// SpanBroadcastChunks returns the rounds consumed by BroadcastChunks.
func SpanBroadcastChunks(np, numChunks int) int64 {
	return int64(numChunks) * spanWindow(np)
}

// bitAccum reassembles a bit stream delivered in chunks, zero-padded
// to whole bytes. The pure half of BroadcastChunks.
type bitAccum struct {
	out  []byte
	bits int
}

func newBitAccum(payloadBits int) *bitAccum {
	return &bitAccum{out: make([]byte, 0, (payloadBits+7)/8)}
}

func (a *bitAccum) append(data []byte, nbits int) {
	for i := 0; i < nbits; i++ {
		bit := (data[i/8] >> (7 - uint(i%8))) & 1
		if a.bits%8 == 0 {
			a.out = append(a.out, 0)
		}
		a.out[len(a.out)-1] |= bit << (7 - uint(a.bits%8))
		a.bits++
	}
}

// rootChunk cuts the root's c-th chunk out of the payload ("null"
// filler per §5.3 once the payload is exhausted).
func rootChunk(payload []byte, c, chunkBits, payloadBits int) *chunkMsg {
	lo := c * chunkBits
	hi := lo + chunkBits
	if hi > payloadBits {
		hi = payloadBits
	}
	if lo < hi {
		return &chunkMsg{Data: sliceBits(payload, lo, hi), NBits: hi - lo}
	}
	return &chunkMsg{NBits: 0}
}

// sliceBits extracts bits [lo, hi) of data into a fresh byte slice.
func sliceBits(data []byte, lo, hi int) []byte {
	n := hi - lo
	out := make([]byte, (n+7)/8)
	for i := 0; i < n; i++ {
		bit := (data[(lo+i)/8] >> (7 - uint((lo+i)%8))) & 1
		out[i/8] |= bit << (7 - uint(i%8))
	}
	return out
}
