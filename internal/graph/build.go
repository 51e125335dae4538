package graph

import (
	"runtime"

	"github.com/hpcl-repro/epg/internal/parallel"
)

// BuildOptions controls CSR construction.
type BuildOptions struct {
	// Workers is the number of construction goroutines; 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Symmetrize inserts the reverse of every edge, turning a
	// directed edge list into an undirected adjacency structure
	// (the Graph500 convention for Kronecker graphs).
	Symmetrize bool
	// DropSelfLoops removes u->u edges, as the Graph500 reference
	// does during Kernel 1.
	DropSelfLoops bool
	// Dedup removes duplicate (src,dst) pairs and sorts each
	// adjacency list. For weighted graphs the minimum weight among
	// parallel edges wins.
	Dedup bool
	// Sort sorts each adjacency list ascending; without Dedup,
	// parallel edges are ordered by weight.
	Sort bool
}

func (o *BuildOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// buildSerialCutoff is the edge count below which construction runs on
// one worker: the histogram/scan machinery only pays for itself on
// inputs large enough to amortize a barrier.
const buildSerialCutoff = 1 << 12

// BuildCSR constructs a CSR from an edge list with atomic-free
// counting scatters. Each scatter runs in two passes: pass one
// accumulates one degree histogram per worker over its contiguous
// share of the input; the histograms are merged and turned into row
// offsets by a parallel exclusive prefix sum (parallel.ScanInt64);
// pass two scatters entries into per-(worker,row) reserved
// sub-ranges, so every write lands in a slot no other worker can
// touch.
//
// Without Sort or Dedup one scatter keyed by source is the whole
// build, and a row lists its neighbors grouped by worker rank, then in
// input order. With either option the edges are scattered keyed by
// destination (rows hold sources) and then transposed back: the
// transpose emits every row ascending (see Transpose), so no
// comparison sort runs, and Dedup is folded into that second scatter.
// The sorted structure is a pure function of the input edge multiset,
// independent of worker count and input order.
func BuildCSR(el *EdgeList, opt BuildOptions) *CSR {
	w := opt.workers()
	if len(el.Edges) < buildSerialCutoff {
		w = 1
	}
	if !opt.Sort && !opt.Dedup {
		return scatterEdges(el, opt, false, w)
	}
	c := transpose(scatterEdges(el, opt, true, w), w, opt.Dedup)
	if !opt.Dedup {
		orderTiesByWeight(c, w)
	}
	return c
}

// scatterEdges places every edge of el in the source's row, or, with
// byDst, the source in the destination's row. Symmetrize places the
// reverse entry too.
func scatterEdges(el *EdgeList, opt BuildOptions, byDst bool, w int) *CSR {
	n := el.NumVertices
	pool := parallel.Default()
	ne := len(el.Edges)
	block := (ne + w - 1) / w
	edgeRange := func(worker int) (int, int) {
		return min(worker*block, ne), min(worker*block+block, ne)
	}

	// Pass 1: per-worker degree histograms — plain increments into
	// worker-private arrays, no shared state.
	hist := make([][]int32, w)
	pool.Run(w, func(worker int) {
		h := make([]int32, n)
		lo, hi := edgeRange(worker)
		for i := lo; i < hi; i++ {
			e := el.Edges[i]
			if opt.DropSelfLoops && e.Src == e.Dst {
				continue
			}
			r, u := e.Src, e.Dst
			if byDst {
				r, u = u, r
			}
			h[r]++
			if opt.Symmetrize {
				h[u]++
			}
		}
		hist[worker] = h
	})
	csr := reserveRows(pool, w, n, hist, el.Weighted)

	// Pass 2: scatter into reserved sub-ranges. Worker k's cursor for
	// row r starts at Offsets[r] + hist[k][r] and only worker k
	// advances it — no atomics, no races.
	pool.Run(w, func(worker int) {
		rel := hist[worker]
		lo, hi := edgeRange(worker)
		for i := lo; i < hi; i++ {
			e := el.Edges[i]
			if opt.DropSelfLoops && e.Src == e.Dst {
				continue
			}
			r, u := e.Src, e.Dst
			if byDst {
				r, u = u, r
			}
			p := csr.Offsets[r] + int64(rel[r])
			rel[r]++
			csr.Adj[p] = u
			if el.Weighted {
				csr.Weights[p] = e.W
			}
			if opt.Symmetrize {
				q := csr.Offsets[u] + int64(rel[u])
				rel[u]++
				csr.Adj[q] = r
				if el.Weighted {
					csr.Weights[q] = e.W
				}
			}
		}
	})
	return csr
}

// reserveRows merges the per-worker degree histograms into a CSR with
// allocated rows. offsets[v] first holds deg(v); in the same sweep
// each worker's histogram entry is replaced by that worker's start
// offset *within* row v (its reserved sub-range), then the parallel
// scan turns degrees into row offsets.
func reserveRows(pool *parallel.Pool, w, n int, hist [][]int32, weighted bool) *CSR {
	offsets := make([]int64, n+1)
	parallel.For(pool, w, n, 4096, parallel.Static, func(lo, hi, chunk, worker int) {
		for v := lo; v < hi; v++ {
			var run int32
			for k := 0; k < w; k++ {
				d := hist[k][v]
				hist[k][v] = run
				run += d
			}
			offsets[v] = int64(run)
		}
	})
	total := parallel.ScanInt64(pool, w, offsets)
	c := &CSR{NumVertices: n, Offsets: offsets, Adj: make([]VID, total)}
	if weighted {
		c.Weights = make([]float32, total)
	}
	return c
}

// Transpose returns the reverse-adjacency CSR (in-neighbors) using the
// same atomic-free histogram/scan/reserved-scatter scheme as BuildCSR.
// Workers own contiguous, ascending source-vertex ranges and their
// reserved sub-ranges are cumulative in worker order, so every output
// row lists its sources in ascending order at any worker count.
// Entries with the same source (parallel edges) keep their input
// order.
func Transpose(c *CSR, workers int) *CSR {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(c.Adj) < buildSerialCutoff {
		workers = 1
	}
	return transpose(c, workers, false)
}

// transpose is Transpose on a resolved worker count. With dedup, a
// repeated (v,u) entry is dropped and its weight folded into the copy
// already placed, keeping the minimum. All copies of (v,u) sit in row
// v, which one worker owns, so a per-worker marker of the last source
// placed in each output row spots the repeats in both passes.
func transpose(c *CSR, workers int, dedup bool) *CSR {
	n := c.NumVertices
	pool := parallel.Default()
	block := (n + workers - 1) / workers
	rowRange := func(worker int) (int, int) {
		return min(worker*block, n), min(worker*block+block, n)
	}
	// marker returns the worker's seen array for dedup: seen[u] is 1 +
	// the last source placed in output row u, 0 before any.
	marker := func() []VID {
		if dedup {
			return make([]VID, n)
		}
		return nil
	}

	hist := make([][]int32, workers)
	pool.Run(workers, func(worker int) {
		h, seen := make([]int32, n), marker()
		lo, hi := rowRange(worker)
		for v := lo; v < hi; v++ {
			for _, u := range c.Adj[c.Offsets[v]:c.Offsets[v+1]] {
				if dedup {
					if seen[u] == VID(v)+1 {
						continue
					}
					seen[u] = VID(v) + 1
				}
				h[u]++
			}
		}
		hist[worker] = h
	})
	t := reserveRows(pool, workers, n, hist, c.Weights != nil)

	pool.Run(workers, func(worker int) {
		rel, seen := hist[worker], marker()
		lo, hi := rowRange(worker)
		for v := lo; v < hi; v++ {
			for i := c.Offsets[v]; i < c.Offsets[v+1]; i++ {
				u := c.Adj[i]
				if dedup {
					if seen[u] == VID(v)+1 {
						if t.Weights != nil {
							p := t.Offsets[u] + int64(rel[u]) - 1
							t.Weights[p] = min(t.Weights[p], c.Weights[i])
						}
						continue
					}
					seen[u] = VID(v) + 1
				}
				p := t.Offsets[u] + int64(rel[u])
				rel[u]++
				t.Adj[p] = VID(v)
				if t.Weights != nil {
					t.Weights[p] = c.Weights[i]
				}
			}
		}
	})
	return t
}

// orderTiesByWeight orders each run of equal neighbors in an ascending
// weighted CSR by weight. Runs exist only where parallel edges do, and
// are short, so an insertion sort over weights alone suffices.
func orderTiesByWeight(c *CSR, workers int) {
	if c.Weights == nil {
		return
	}
	parallel.For(parallel.Default(), workers, c.NumVertices, 4096, parallel.Static, func(lo, hi, chunk, worker int) {
		for v := lo; v < hi; v++ {
			adj := c.Adj[c.Offsets[v]:c.Offsets[v+1]]
			ws := c.Weights[c.Offsets[v]:c.Offsets[v+1]]
			run := 0
			for i := 1; i < len(adj); i++ {
				if adj[i] != adj[i-1] {
					run = i
					continue
				}
				x, j := ws[i], i
				for ; j > run && ws[j-1] > x; j-- {
					ws[j] = ws[j-1]
				}
				ws[j] = x
			}
		}
	})
}

// SortAdjacency sorts each vertex's neighbor list ascending (weights
// permuted alongside, ties ordered by weight), in place. It runs the
// stable scatter twice — a transpose and back — so no comparison sort
// is involved. Sorted adjacency improves locality, is required by the
// LCC intersection kernels, and is a precondition of CompressCSR's
// unsigned gap encoding. BuildCSR with Sort or Dedup already returns
// sorted rows.
func (c *CSR) SortAdjacency() {
	w := runtime.GOMAXPROCS(0)
	if len(c.Adj) < buildSerialCutoff {
		w = 1
	}
	s := transpose(transpose(c, w, false), w, false)
	orderTiesByWeight(s, w)
	copy(c.Adj, s.Adj)
	copy(c.Weights, s.Weights)
}
