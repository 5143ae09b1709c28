package graph

import (
	"fmt"
	"math"
	"slices"
)

// CSR construction. Every graph in the package is built through one of
// three entry points, all sharing the same two-pass shape — count
// endpoint degrees, prefix-sum into row offsets, fill the flat neighbor
// array — so no per-node append slices or edge-list copies are ever
// materialized beyond the caller's own half-edge arrays:
//
//   - build(n, emit) streams a deterministic edge enumeration twice
//     (count pass + fill pass); nothing is materialized at all. Used by
//     the deterministic generators (grid, torus, hypercube, ...).
//   - fromPairs(n, us, vs, dedup) builds from parallel endpoint arrays
//     (4 bytes per endpoint), the form the randomized generators
//     collect while consuming their RNG stream exactly once.
//   - fromPairsChecked(n, us, vs) additionally validates self-loops and
//     vertex ranges in input order, for untrusted edge lists.
//
// Rows are sorted with slices.Sort (no reflection) and deduplicated by
// an in-place compaction over the sorted rows, replacing the seed
// layout's per-edge map[[2]int]bool lookups.

// MaxEdges is the edge-count cap imposed by the int32 offsets (the arc
// count 2m must fit in an int32).
const MaxEdges = math.MaxInt32 / 2

func checkEdgeCount(m int) {
	if m > MaxEdges {
		panic(fmt.Sprintf("graph: %d edges overflow the int32 CSR offsets (max %d)", m, MaxEdges))
	}
}

// build constructs the CSR graph on n vertices by running emit twice:
// once counting endpoint degrees, once filling the neighbor array. emit
// must enumerate the same simple, in-range, loop-free edges both times
// (each undirected edge exactly once).
func build(n int, emit func(edge func(u, v int))) *Graph {
	deg := make([]int32, n)
	m := 0
	emit(func(u, v int) {
		deg[u]++
		deg[v]++
		m++
	})
	checkEdgeCount(m)
	g := &Graph{off: make([]int32, n+1), nbr: make([]int32, 2*m), m: m}
	cur := fillOffsets(g.off, deg)
	emit(func(u, v int) {
		g.nbr[cur[u]] = int32(v)
		cur[u]++
		g.nbr[cur[v]] = int32(u)
		cur[v]++
	})
	g.sortRows()
	return g
}

// fromPairs builds the CSR graph from parallel endpoint arrays: edge i
// is {us[i], vs[i]}. Endpoints must be in range and loop-free; with
// dedup, duplicate edges (in either orientation) are collapsed.
func fromPairs(n int, us, vs []int32, dedup bool) *Graph {
	checkEdgeCount(len(us))
	deg := make([]int32, n)
	for i := range us {
		deg[us[i]]++
		deg[vs[i]]++
	}
	g := &Graph{off: make([]int32, n+1), nbr: make([]int32, 2*len(us)), m: len(us)}
	cur := fillOffsets(g.off, deg)
	for i := range us {
		u, v := us[i], vs[i]
		g.nbr[cur[u]] = v
		cur[u]++
		g.nbr[cur[v]] = u
		cur[v]++
	}
	g.sortRows()
	if dedup {
		g.dedupRows()
	}
	return g
}

// fromPairsChecked is fromPairs for untrusted input: it validates every
// edge in input order (self-loops, vertex range) before building, with
// duplicate edges collapsed.
func fromPairsChecked(n int, us, vs []int32) (*Graph, error) {
	for i := range us {
		u, v := us[i], vs[i]
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at %d", u)
		}
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
	}
	return fromPairs(n, us, vs, true), nil
}

// fillOffsets turns per-vertex degree counts into the CSR offset array
// (off[v+1] = off[v] + deg[v]) and returns a fill cursor initialized to
// each row's start.
func fillOffsets(off []int32, deg []int32) []int32 {
	cur := make([]int32, len(deg))
	for v, d := range deg {
		off[v+1] = off[v] + d
		cur[v] = off[v]
	}
	return cur
}

// sortRows sorts every adjacency row ascending, establishing the port
// numbering (a neighbor's port is its rank in the sorted row).
func (g *Graph) sortRows() {
	for v := 0; v+1 < len(g.off); v++ {
		slices.Sort(g.nbr[g.off[v]:g.off[v+1]])
	}
}

// dedupRows collapses duplicate entries within each sorted row by
// in-place compaction and recomputes the offsets and edge count.
func (g *Graph) dedupRows() {
	w := int32(0)
	for v := 0; v+1 < len(g.off); v++ {
		lo, hi := g.off[v], g.off[v+1]
		g.off[v] = w
		for i := lo; i < hi; i++ {
			if i > lo && g.nbr[i] == g.nbr[i-1] {
				continue
			}
			g.nbr[w] = g.nbr[i]
			w++
		}
	}
	g.off[len(g.off)-1] = w
	g.nbr = g.nbr[:w]
	g.m = int(w / 2)
}
