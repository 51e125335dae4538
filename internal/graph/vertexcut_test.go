package graph_test

// External test package: the kron-16 wall generates its input with
// the kronecker package, which imports graph.

import (
	"math/bits"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
)

// greedyVertexCutOracle is the straightforward greedy cut the level
// lists in GreedyVertexCut replace: per edge, scan every candidate
// shard (or every shard when neither endpoint is placed) for the
// least-loaded one, lowest index on ties.
func greedyVertexCutOracle(c *graph.CSR, shards int, assign func(src, dst graph.VID, w float32, shard int)) *graph.VertexCutStats {
	if shards > graph.MaxVertexCutShards {
		shards = graph.MaxVertexCutShards
	}
	if shards < 1 {
		shards = 1
	}
	st := &graph.VertexCutStats{
		Shards:   shards,
		Replicas: make([]uint64, c.NumVertices),
		Loads:    make([]int64, shards),
	}
	place := func(src, dst graph.VID, w float32) {
		cand := st.Replicas[src] | st.Replicas[dst]
		best := -1
		var bestLoad int64
		if cand != 0 {
			for mask := cand; mask != 0; mask &= mask - 1 {
				s := bits.TrailingZeros64(mask)
				if best == -1 || st.Loads[s] < bestLoad {
					best, bestLoad = s, st.Loads[s]
				}
			}
		} else {
			for s := 0; s < shards; s++ {
				if best == -1 || st.Loads[s] < bestLoad {
					best, bestLoad = s, st.Loads[s]
				}
			}
		}
		if assign != nil {
			assign(src, dst, w, best)
		}
		st.Loads[best]++
		st.Replicas[src] |= 1 << uint(best)
		st.Replicas[dst] |= 1 << uint(best)
	}
	for v := 0; v < c.NumVertices; v++ {
		adj := c.Neighbors(graph.VID(v))
		ws := c.NeighborWeights(graph.VID(v))
		for i, u := range adj {
			var w float32
			if ws != nil {
				w = ws[i]
			}
			place(graph.VID(v), u, w)
		}
	}
	for _, mask := range st.Replicas {
		st.TotalRep += int64(bits.OnesCount64(mask))
	}
	return st
}

// checkCutMatchesOracle asserts the cut calls assign once per edge in
// stream order with the oracle's shard, that every stats field equals
// the oracle's, and that the nil-assign form yields the same stats.
func checkCutMatchesOracle(t testing.TB, c *graph.CSR, shards int) {
	t.Helper()
	want := make([]uint8, 0, c.NumEdges())
	wantSt := greedyVertexCutOracle(c, shards, func(_, _ graph.VID, _ float32, shard int) {
		want = append(want, uint8(shard))
	})
	k, bad := int64(0), int64(-1)
	got := graph.GreedyVertexCut(c, shards, func(src, dst graph.VID, w float32, shard int) {
		ok := k < int64(len(want)) && int(want[k]) == shard &&
			c.Offsets[src] <= k && k < c.Offsets[src+1] && c.Adj[k] == dst &&
			(c.Weights == nil && w == 0 || c.Weights != nil && c.Weights[k] == w)
		if !ok && bad < 0 {
			bad = k
		}
		k++
	})
	if bad >= 0 {
		t.Fatalf("shards=%d: placement %d differs from the oracle's or from the stream", shards, bad)
	}
	if k != int64(len(want)) {
		t.Fatalf("shards=%d: %d placements, oracle %d", shards, k, len(want))
	}
	for _, st := range []*graph.VertexCutStats{got, graph.GreedyVertexCut(c, shards, nil)} {
		if st.Shards != wantSt.Shards || st.TotalRep != wantSt.TotalRep ||
			!slices.Equal(st.Loads, wantSt.Loads) || !slices.Equal(st.Replicas, wantSt.Replicas) {
			t.Fatalf("shards=%d: stats {shards %d, totalRep %d, loads %v} differ from oracle {shards %d, totalRep %d, loads %v} (or replica masks differ)",
				shards, st.Shards, st.TotalRep, st.Loads, wantSt.Shards, wantSt.TotalRep, wantSt.Loads)
		}
	}
}

// cutShardCounts covers one shard, odd and even widths, a
// word-minus-one and a full-word mask, and both clamps.
var cutShardCounts = []int{0, 1, 2, 3, 8, 32, 63, 64, 100}

func build(el *graph.EdgeList, symmetrize bool) *graph.CSR {
	return graph.BuildCSR(el, graph.BuildOptions{Symmetrize: symmetrize, DropSelfLoops: true, Dedup: true, Sort: true})
}

func TestGreedyVertexCutMatchesOracleKron16(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 16, Seed: 42})
	c := build(el, true)
	for _, p := range []int{1, 2, 3, 8, 32, 63, 64} {
		checkCutMatchesOracle(t, c, p)
	}
}

// TestGreedyVertexCutMatchesOracleAdversarial covers the shapes the
// level lists handle at their edges: one hub touching every shard's
// candidates, 120 components of growing size whose first edges land
// on the globally least-loaded shard while the rest pile onto their
// hub's shard (loads spread over many levels), no edges at all, and
// one edge.
func TestGreedyVertexCutMatchesOracleAdversarial(t *testing.T) {
	star := &graph.EdgeList{NumVertices: 2048, Directed: true, Weighted: true}
	for i := 1; i < star.NumVertices; i++ {
		star.Edges = append(star.Edges, graph.Edge{Src: 0, Dst: graph.VID(i), W: float32(i%7+1) / 8})
	}
	// Component k is a star with k leaves under hub h, plus a path
	// back through its leaves.
	comps := &graph.EdgeList{Directed: true}
	next := graph.VID(0)
	for k := 1; k <= 120; k++ {
		h := next
		for j := 1; j <= k; j++ {
			comps.Edges = append(comps.Edges, graph.Edge{Src: h, Dst: h + graph.VID(j)})
			if j > 1 {
				comps.Edges = append(comps.Edges, graph.Edge{Src: h + graph.VID(j), Dst: h + graph.VID(j-1)})
			}
		}
		next += graph.VID(k + 1)
	}
	comps.NumVertices = int(next)
	empty := &graph.EdgeList{NumVertices: 17, Directed: true}
	single := &graph.EdgeList{NumVertices: 2, Directed: true, Edges: []graph.Edge{{Src: 1, Dst: 0}}}

	for _, tc := range []struct {
		name string
		el   *graph.EdgeList
	}{{"star", star}, {"components", comps}, {"empty", empty}, {"single-edge", single}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, sym := range []bool{false, true} {
				c := build(tc.el, sym)
				for _, p := range cutShardCounts {
					checkCutMatchesOracle(t, c, p)
				}
			}
		})
	}
	zero := build(&graph.EdgeList{Directed: true}, false)
	for _, p := range cutShardCounts {
		checkCutMatchesOracle(t, zero, p)
	}
}

// FuzzGreedyVertexCut checks the level-list cut against the oracle
// on arbitrary small graphs: byte pairs are edges over up to 64
// vertices, the shard count is taken mod 66 (so 0 and 65 exercise
// the clamps).
func FuzzGreedyVertexCut(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0, 3, 4}, uint8(3), false)
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 5, 6}, uint8(64), true)
	f.Add([]byte{}, uint8(0), false)
	f.Fuzz(func(t *testing.T, data []byte, shards uint8, sym bool) {
		const n = 64
		el := &graph.EdgeList{NumVertices: n, Directed: true}
		for i := 0; i+1 < len(data); i += 2 {
			el.Edges = append(el.Edges, graph.Edge{Src: graph.VID(data[i] % n), Dst: graph.VID(data[i+1] % n)})
		}
		checkCutMatchesOracle(t, build(el, sym), int(shards%66))
	})
}

var cutSink *graph.VertexCutStats

// BenchmarkGreedyVertexCutKron16 times the greedy streaming cut of
// weighted kron-16's symmetrized adjacency into 32 shards, stats only
// (the cluster partitioner's call). `make bench-build` runs it.
func BenchmarkGreedyVertexCutKron16(b *testing.B) {
	c := build(kronecker.Generate(kronecker.Params{Scale: 16, Seed: 42}), true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cutSink = graph.GreedyVertexCut(c, 32, nil)
	}
}
