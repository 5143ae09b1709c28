// Package cluster shards awakemisd jobs across worker daemons. A
// front daemon (awakemisd -peers ...) owns no engines: it
// deduplicates submissions through its own cache and store, then
// forwards each new flight to the peer that owns its canonical spec
// hash on a consistent-hash ring — the same deterministic-
// partitioning shape the study subsystem applies to sweep cells, one
// level up. Determinism is the point: every front routes an equal
// spec to the same peer, so across the whole cluster each simulation
// is computed once, ever, and lands in exactly one worker's store.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/fnv"
	"sort"
	"strconv"
)

// defaultReplicas is the virtual-node count per peer: enough that
// removing one peer of three moves only ~1/3 of the hash space, with
// a ring small enough to search by binary search in nanoseconds.
const defaultReplicas = 64

// Ring places peers on a consistent-hash ring keyed by canonical spec
// hash. Immutable after construction; equal peer lists (in any order)
// build identical rings, so every front in a fleet routes alike.
type Ring struct {
	points []point  // sorted by position
	peers  []string // sorted unique peer addresses
}

type point struct {
	pos  uint64
	peer string
}

// NewRing builds a ring of the peers with `replicas` virtual nodes
// each (<= 0 means the default 64).
func NewRing(peers []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	uniq := make([]string, 0, len(peers))
	seen := map[string]bool{}
	for _, p := range peers {
		if !seen[p] {
			seen[p] = true
			uniq = append(uniq, p)
		}
	}
	sort.Strings(uniq)
	r := &Ring{peers: uniq, points: make([]point, 0, len(uniq)*replicas)}
	for _, p := range uniq {
		for i := range replicas {
			r.points = append(r.points, point{pos: vnode(p, i), peer: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		return r.points[i].peer < r.points[j].peer // deterministic on collisions
	})
	return r
}

// vnode places one virtual node at the first 8 bytes of
// SHA-256("peer#i"), the hash keys are placed by. FNV-64a, used before,
// left addresses that differ in one character clustered on the ring:
// 10.0.0.1:7600 and 10.0.0.2:7600 split uniform keys 14%/86%.
func vnode(peer string, i int) uint64 {
	sum := sha256.Sum256([]byte(peer + "#" + strconv.Itoa(i)))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyPos maps a canonical spec hash onto the ring. The hash is hex
// SHA-256, already uniform — its first 16 digits are the position.
func keyPos(hash string) uint64 {
	if len(hash) >= 16 {
		if v, err := strconv.ParseUint(hash[:16], 16, 64); err == nil {
			return v
		}
	}
	h := fnv.New64a() // non-hex key (shouldn't happen): still deterministic
	h.Write([]byte(hash))
	return h.Sum64()
}

// Peers returns the ring's peer addresses, sorted.
func (r *Ring) Peers() []string { return r.peers }

// Owner returns the peer owning hash: the first virtual node at or
// after the key's ring position, wrapping around.
func (r *Ring) Owner(hash string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.successor(keyPos(hash))].peer
}

// Order returns every peer exactly once, in ring-successor order
// starting at hash's owner — the deterministic retry order a front
// walks when the owner is down.
func (r *Ring) Order(hash string) []string {
	if len(r.points) == 0 {
		return nil
	}
	order := make([]string, 0, len(r.peers))
	seen := map[string]bool{}
	i := r.successor(keyPos(hash))
	for range r.points {
		p := r.points[i].peer
		if !seen[p] {
			seen[p] = true
			order = append(order, p)
			if len(order) == len(r.peers) {
				break
			}
		}
		i++
		if i == len(r.points) {
			i = 0
		}
	}
	return order
}

// successor finds the index of the first point at or after pos,
// wrapping past the top of the ring to index 0.
func (r *Ring) successor(pos uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		return 0
	}
	return i
}
