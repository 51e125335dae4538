package server

import (
	"container/heap"
	"math"
	"testing"

	"github.com/hpcl-repro/epg/internal/graph"
)

// oracleHeap is the container/heap frontier that the typed distHeap
// replaced, kept as the oracle for its pop order.
type oracleHeap []distItem

func (h oracleHeap) Len() int           { return len(h) }
func (h oracleHeap) Less(i, j int) bool { return h[i].less(h[j]) }
func (h oracleHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// dijkstraOracle is dijkstra over container/heap.
func dijkstraOracle(c *graph.CSR, root graph.VID) []float64 {
	dist := make([]float64, c.NumVertices)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[root] = 0
	h := &oracleHeap{{v: root, d: 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		ws := c.NeighborWeights(it.v)
		for i, u := range c.Neighbors(it.v) {
			if nd := it.d + float64(ws[i]); nd < dist[u] {
				dist[u] = nd
				heap.Push(h, distItem{v: u, d: nd})
			}
		}
	}
	return dist
}

// TestSketchMatchesContainerHeapOracle: on weighted kron-12 every
// landmark's hops and distances are bit-equal to the container/heap
// Dijkstra's.
func TestSketchMatchesContainerHeapOracle(t *testing.T) {
	c := buildTestCSR(t, "kron-12", 5)
	s := BuildSketch(c, 8)
	if s.dist == nil {
		t.Fatal("kron-12 sketch has no weighted distances")
	}
	for li, l := range s.Landmarks() {
		hops, dist := bfsHops(c, l), dijkstraOracle(c, l)
		for v := range dist {
			if s.hops[li][v] != hops[v] {
				t.Fatalf("landmark %d: hops[%d] = %d, oracle %d", l, v, s.hops[li][v], hops[v])
			}
			if math.Float64bits(s.dist[li][v]) != math.Float64bits(dist[v]) {
				t.Fatalf("landmark %d: dist[%d] = %v, oracle %v", l, v, s.dist[li][v], dist[v])
			}
		}
	}
}

func benchmarkDijkstra(b *testing.B, sssp func(*graph.CSR, graph.VID) []float64) {
	c := buildTestCSR(b, "kron-12", 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sssp(c, graph.VID(i%c.NumVertices))
	}
}

func BenchmarkDijkstra(b *testing.B)              { benchmarkDijkstra(b, dijkstra) }
func BenchmarkDijkstraContainerHeap(b *testing.B) { benchmarkDijkstra(b, dijkstraOracle) }
