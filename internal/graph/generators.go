package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// The generators build straight into CSR form: deterministic families
// stream their edge enumeration through build's count + fill passes
// (nothing materialized), while randomized families consume their RNG
// stream exactly once into flat half-edge arrays and hand those to
// fromPairs. No generator keeps per-node append slices or a
// map-of-edges; dedup, where a family needs it, is sort+compact over
// the assembled rows.

// GNP returns an Erdős–Rényi random graph G(n, p) drawn with rng.
// For p <= 0 it returns the empty graph, for p >= 1 the complete graph.
func GNP(n int, p float64, rng *rand.Rand) *Graph {
	if p <= 0 || n < 2 {
		return New(n)
	}
	if p >= 1 {
		return Complete(n)
	}
	est := int(p*float64(n)*float64(n-1)/2*1.1) + 16
	us := make([]int32, 0, est)
	vs := make([]int32, 0, est)
	// Batagelj–Brandes geometric skipping over the lower-triangular
	// pairs (v, w), w < v: O(n + m) expected time.
	logq := math.Log1p(-p)
	v, w := 1, -1
	for v < n {
		r := rng.Float64()
		skip := math.Floor(math.Log1p(-r) / logq)
		if skip > float64(n)*float64(n) { // overshoots every remaining pair
			break
		}
		w += 1 + int(skip)
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			us = append(us, int32(v))
			vs = append(vs, int32(w))
		}
	}
	return fromPairs(n, us, vs, false)
}

// Cycle returns the n-cycle (n >= 3), or a path for n < 3.
func Cycle(n int) *Graph {
	return build(n, func(edge func(u, v int)) {
		for i := 0; i+1 < n; i++ {
			edge(i, i+1)
		}
		if n >= 3 {
			edge(0, n-1)
		}
	})
}

// Path returns the path 0-1-...-(n-1).
func Path(n int) *Graph {
	return build(n, func(edge func(u, v int)) {
		for i := 0; i+1 < n; i++ {
			edge(i, i+1)
		}
	})
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	checkEdgeCount(n * (n - 1) / 2) // fail before enumerating ~n²/2 pairs
	return build(n, func(edge func(u, v int)) {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				edge(u, v)
			}
		}
	})
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *Graph {
	return build(n, func(edge func(u, v int)) {
		for v := 1; v < n; v++ {
			edge(0, v)
		}
	})
}

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int) *Graph {
	id := func(r, c int) int { return r*cols + c }
	return build(rows*cols, func(edge func(u, v int)) {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if c+1 < cols {
					edge(id(r, c), id(r, c+1))
				}
				if r+1 < rows {
					edge(id(r, c), id(r+1, c))
				}
			}
		}
	})
}

// RandomTree returns a uniformly random labeled tree on n vertices via
// a random Prüfer sequence.
func RandomTree(n int, rng *rand.Rand) *Graph {
	if n <= 1 {
		return New(n)
	}
	if n == 2 {
		return MustFromEdges(2, [][2]int{{0, 1}})
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range prufer {
		degree[v]++
	}
	us := make([]int32, 0, n-1)
	vs := make([]int32, 0, n-1)
	// Min-heap over leaves by index for determinism.
	leaves := &intHeap{}
	for v := 0; v < n; v++ {
		if degree[v] == 1 {
			leaves.push(v)
		}
	}
	for _, v := range prufer {
		leaf := leaves.pop()
		us = append(us, int32(leaf))
		vs = append(vs, int32(v))
		degree[v]--
		if degree[v] == 1 {
			leaves.push(v)
		}
	}
	a := leaves.pop()
	b := leaves.pop()
	us = append(us, int32(a))
	vs = append(vs, int32(b))
	return fromPairs(n, us, vs, false)
}

// BinaryTree returns the complete binary tree on n vertices with root 0
// (vertex v has children 2v+1 and 2v+2 when in range).
func BinaryTree(n int) *Graph {
	return build(n, func(edge func(u, v int)) {
		for v := 0; v < n; v++ {
			for _, c := range [2]int{2*v + 1, 2*v + 2} {
				if c < n {
					edge(v, c)
				}
			}
		}
	})
}

// RandomRegular returns an (approximately) d-regular random graph via
// the configuration model with rejection of self-loops and multi-edges;
// a small number of vertices may end up with degree below d.
func RandomRegular(n, d int, rng *rand.Rand) *Graph {
	if d >= n {
		panic(fmt.Sprintf("graph: RandomRegular requires d < n, got d=%d n=%d", d, n))
	}
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	us := make([]int32, 0, n*d/2)
	vs := make([]int32, 0, n*d/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			continue
		}
		us = append(us, int32(u))
		vs = append(vs, int32(v))
	}
	// Multi-edges from the pairing collapse in the dedup compaction.
	return fromPairs(n, us, vs, true)
}

// PreferentialAttachment returns a Barabási–Albert style power-law graph:
// each new vertex attaches to k existing vertices chosen proportionally
// to degree (with repetition collapsed). Attachment bookkeeping is a
// small pick list rather than a map, so the construction is fully
// deterministic for a fixed rng stream.
func PreferentialAttachment(n, k int, rng *rand.Rand) *Graph {
	if n <= 0 {
		return New(0)
	}
	if k < 1 {
		k = 1
	}
	us := make([]int32, 0, n*k)
	vs := make([]int32, 0, n*k)
	// targets holds one entry per endpoint, so sampling uniformly from it
	// is degree-proportional sampling.
	targets := make([]int32, 1, 2*n*k)
	picked := make([]int32, 0, k)
	for v := 1; v < n; v++ {
		picked = picked[:0]
		for t := 0; t < k && t < v; t++ {
			w := targets[rng.Intn(len(targets))]
			if int(w) == v || contains32(picked, w) {
				continue
			}
			picked = append(picked, w)
			us = append(us, int32(v))
			vs = append(vs, w)
		}
		if len(picked) == 0 {
			// Guarantee connectivity by attaching to a uniform earlier vertex.
			w := int32(rng.Intn(v))
			picked = append(picked, w)
			us = append(us, int32(v))
			vs = append(vs, w)
		}
		for _, w := range picked {
			targets = append(targets, w, int32(v))
		}
	}
	return fromPairs(n, us, vs, false)
}

// contains32 reports whether x occurs in s (s is at most k entries, so
// a linear scan beats any map).
func contains32(s []int32, x int32) bool {
	for _, y := range s {
		if y == x {
			return true
		}
	}
	return false
}

// RandomGeometric returns a random geometric graph: n points uniform in
// the unit square, an edge between points within distance r.
func RandomGeometric(n int, r float64, rng *rand.Rand) *Graph {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	if r <= 0 {
		return New(n)
	}
	// Grid bucketing for near-linear construction: a dense cell grid
	// filled by counting sort (the same count + fill discipline as the
	// CSR build itself). Cells are at least r wide so the 3×3 cell
	// neighborhood covers the radius, and at least 1/√(4n+16) wide so
	// the grid stays O(n) even for tiny radii.
	cell := r
	if minCell := 1 / math.Sqrt(float64(4*n+16)); cell < minCell {
		cell = minCell
	}
	w := int(1/cell) + 2
	counts := make([]int32, w*w+1)
	cellOf := func(i int) int {
		return int(xs[i]/cell)*w + int(ys[i]/cell)
	}
	for i := 0; i < n; i++ {
		counts[cellOf(i)+1]++
	}
	for c := 1; c <= w*w; c++ {
		counts[c] += counts[c-1]
	}
	order := make([]int32, n) // point indices grouped by cell, ascending within
	cur := append([]int32(nil), counts[:w*w]...)
	for i := 0; i < n; i++ {
		c := cellOf(i)
		order[cur[c]] = int32(i)
		cur[c]++
	}
	var us, vs []int32
	r2 := r * r
	for i := 0; i < n; i++ {
		cx, cy := int(xs[i]/cell), int(ys[i]/cell)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || nx >= w || ny < 0 || ny >= w {
					continue
				}
				c := nx*w + ny
				for _, j32 := range order[counts[c]:counts[c+1]] {
					j := int(j32)
					if j <= i {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						us = append(us, int32(i))
						vs = append(vs, j32)
					}
				}
			}
		}
	}
	return fromPairs(n, us, vs, false)
}

// Caterpillar returns a caterpillar tree: a spine path of length
// spine with legs pendant vertices attached round-robin to spine nodes.
// Useful as an adversarial low-diameter-tree workload.
func Caterpillar(spine, legs int) *Graph {
	return build(spine+legs, func(edge func(u, v int)) {
		for i := 0; i+1 < spine; i++ {
			edge(i, i+1)
		}
		for l := 0; l < legs; l++ {
			edge(l%spine, spine+l)
		}
	})
}

// DisjointUnion returns the disjoint union of the given graphs, with
// vertex blocks in argument order. Because each input is already in CSR
// form with sorted rows, the union is a straight concatenation: rows
// copy with a vertex-index shift.
func DisjointUnion(gs ...*Graph) *Graph {
	total, arcs, edges := 0, 0, 0
	for _, g := range gs {
		total += g.N()
		arcs += len(g.nbr)
		edges += g.m
	}
	checkEdgeCount(edges)
	out := &Graph{
		off: make([]int32, total+1),
		nbr: make([]int32, arcs),
	}
	base, pos := 0, int32(0)
	for _, g := range gs {
		for v := 0; v < g.N(); v++ {
			out.off[base+v] = pos + g.off[v]
		}
		for i, w := range g.nbr {
			out.nbr[int(pos)+i] = w + int32(base)
		}
		base += g.N()
		pos += int32(len(g.nbr))
		out.m += g.m
	}
	out.off[total] = pos
	return out
}

// intHeap is a tiny min-heap used by RandomTree.
type intHeap struct{ a []int }

func (h *intHeap) push(v int) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	v := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.a[l] < h.a[small] {
			small = l
		}
		if r < last && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return v
}

// DegreeHistogram returns counts[d] = number of vertices of degree d.
func DegreeHistogram(g *Graph) []int {
	counts := make([]int, g.MaxDegree()+1)
	for v := 0; v < g.N(); v++ {
		counts[g.Degree(v)]++
	}
	return counts
}

// SortedComponentSizes returns component sizes in decreasing order.
func SortedComponentSizes(g *Graph) []int {
	comps := g.Components()
	sizes := make([]int, len(comps))
	for i, c := range comps {
		sizes[i] = len(c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}
