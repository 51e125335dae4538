package server

import (
	"math"
	"sort"

	"github.com/hpcl-repro/epg/internal/graph"
)

// Sketch is a landmark-distance oracle: for K high-degree landmarks it
// stores exact single-source distances to every vertex, and estimates
// dist(u,v) as min over landmarks L of d(L,u)+d(L,v) — an upper bound
// by the triangle inequality, exact whenever a shortest u-v path runs
// through a landmark. This is the degraded-mode answer: O(K) lookups
// instead of a traversal, precision traded for immediacy.
type Sketch struct {
	landmarks []graph.VID
	hops      [][]int32   // hops[l][v]; -1 unreachable
	dist      [][]float64 // weighted distances; nil on unweighted datasets
}

// BuildSketch selects the k highest-degree vertices (ties broken
// toward lower ID, so the landmark set is deterministic) and runs one
// serial BFS — plus one serial Dijkstra when the CSR is weighted —
// per landmark. Built once at startup on the homogenized CSR; the
// build is plain Go, off the modeled machine, because it is part of
// daemon startup rather than any measured phase.
func BuildSketch(c *graph.CSR, k int) *Sketch {
	n := c.NumVertices
	if k > n {
		k = n
	}
	s := &Sketch{}
	if k <= 0 || n == 0 {
		return s
	}
	order := make([]graph.VID, n)
	for i := range order {
		order[i] = graph.VID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := c.Degree(order[i]), c.Degree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	s.landmarks = append(s.landmarks, order[:k]...)

	s.hops = make([][]int32, k)
	if c.Weights != nil {
		s.dist = make([][]float64, k)
	}
	for li, l := range s.landmarks {
		s.hops[li] = bfsHops(c, l)
		if c.Weights != nil {
			s.dist[li] = dijkstra(c, l)
		}
	}
	return s
}

// Landmarks returns the landmark set (for logs and tests).
func (s *Sketch) Landmarks() []graph.VID { return s.landmarks }

// EstimateHops returns the sketch upper bound on the hop distance, or
// -1 if no landmark reaches both endpoints.
func (s *Sketch) EstimateHops(u, v graph.VID) float64 {
	if u == v {
		return 0
	}
	best := int32(-1)
	for li := range s.hops {
		hu, hv := s.hops[li][u], s.hops[li][v]
		if hu < 0 || hv < 0 {
			continue
		}
		if sum := hu + hv; best < 0 || sum < best {
			best = sum
		}
	}
	return float64(best)
}

// EstimateDist returns the sketch upper bound on the weighted
// distance, or -1 if unreachable via every landmark (or unweighted).
func (s *Sketch) EstimateDist(u, v graph.VID) float64 {
	if s.dist == nil {
		return -1
	}
	if u == v {
		return 0
	}
	best := math.Inf(1)
	for li := range s.dist {
		du, dv := s.dist[li][u], s.dist[li][v]
		if sum := du + dv; sum < best {
			best = sum
		}
	}
	if math.IsInf(best, 1) {
		return -1
	}
	return best
}

// lookups is the per-estimate landmark count, for the executor's
// modeled charge.
func (s *Sketch) lookups() int { return len(s.landmarks) }

// bfsHops is a plain serial BFS returning hop counts (-1 unreached).
func bfsHops(c *graph.CSR, root graph.VID) []int32 {
	hops := make([]int32, c.NumVertices)
	for i := range hops {
		hops[i] = -1
	}
	hops[root] = 0
	queue := []graph.VID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range c.Neighbors(v) {
			if hops[u] < 0 {
				hops[u] = hops[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return hops
}

// distItem is a Dijkstra frontier entry.
type distItem struct {
	v graph.VID
	d float64
}

// less orders frontier entries by distance, ties toward the lower
// vertex, so the pop order is deterministic.
func (a distItem) less(b distItem) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.v < b.v
}

// distHeap is a typed binary min-heap of frontier entries. push and
// pop sift exactly as container/heap does, without boxing every entry
// into an interface.
type distHeap []distItem

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !s[j].less(s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *distHeap) pop() distItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].less(s[j]) {
			j = j2
		}
		if !s[j].less(s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// dijkstra is a plain serial shortest-path pass (lazy-deletion heap).
func dijkstra(c *graph.CSR, root graph.VID) []float64 {
	n := c.NumVertices
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[root] = 0
	h := distHeap{{v: root, d: 0}}
	for len(h) > 0 {
		it := h.pop()
		if it.d > dist[it.v] {
			continue
		}
		adj := c.Neighbors(it.v)
		ws := c.NeighborWeights(it.v)
		for i, u := range adj {
			if nd := it.d + float64(ws[i]); nd < dist[u] {
				dist[u] = nd
				h.push(distItem{v: u, d: nd})
			}
		}
	}
	return dist
}
