package graph

import (
	"math/rand"
	"testing"
)

// referenceCSR is the pre-rewrite builder, kept as a serial oracle: a
// plain two-pass counting sort with per-vertex cursors. The rewritten
// BuildCSR must produce an equivalent structure (identical once
// adjacency is sorted; bit-identical offsets always).
func referenceCSR(el *EdgeList, opt BuildOptions) *CSR {
	n := el.NumVertices
	counts := make([]int64, n+1)
	for _, e := range el.Edges {
		if opt.DropSelfLoops && e.Src == e.Dst {
			continue
		}
		counts[e.Src+1]++
		if opt.Symmetrize {
			counts[e.Dst+1]++
		}
	}
	for i := 1; i <= n; i++ {
		counts[i] += counts[i-1]
	}
	csr := &CSR{NumVertices: n, Offsets: counts, Adj: make([]VID, counts[n])}
	if el.Weighted {
		csr.Weights = make([]float32, counts[n])
	}
	cursors := make([]int64, n)
	copy(cursors, counts[:n])
	place := func(src, dst VID, w float32) {
		p := cursors[src]
		cursors[src]++
		csr.Adj[p] = dst
		if el.Weighted {
			csr.Weights[p] = w
		}
	}
	for _, e := range el.Edges {
		if opt.DropSelfLoops && e.Src == e.Dst {
			continue
		}
		place(e.Src, e.Dst, e.W)
		if opt.Symmetrize {
			place(e.Dst, e.Src, e.W)
		}
	}
	if opt.Sort || opt.Dedup {
		sortAdjacencyOracle(csr)
	}
	if opt.Dedup {
		csr = dedupCSR(csr)
	}
	return csr
}

func randomEdgeListDup(r *rand.Rand, n, m int, weighted, directed bool) *EdgeList {
	el := &EdgeList{NumVertices: n, Weighted: weighted, Directed: directed}
	for i := 0; i < m; i++ {
		e := Edge{Src: VID(r.Intn(n)), Dst: VID(r.Intn(n))}
		if weighted {
			e.W = float32(r.Intn(100)+1) / 100
		}
		el.Edges = append(el.Edges, e)
		if r.Intn(4) == 0 { // force duplicates
			el.Edges = append(el.Edges, e)
		}
		if r.Intn(8) == 0 { // force self-loops
			v := VID(r.Intn(n))
			el.Edges = append(el.Edges, Edge{Src: v, Dst: v, W: e.W})
		}
	}
	return el
}

// canonicalizeRows re-sorts every adjacency row by (neighbor, weight),
// so layouts that differ only in the weight order among parallel
// edges (Transpose keeps input order) compare equal bitwise.
func canonicalizeRows(c *CSR) {
	for v := 0; v < c.NumVertices; v++ {
		lo, hi := c.Offsets[v], c.Offsets[v+1]
		adj := c.Adj[lo:hi]
		if c.Weights == nil {
			continue
		}
		w := c.Weights[lo:hi]
		for i := 1; i < len(adj); i++ { // rows are tiny: insertion sort
			for j := i; j > 0 && (adj[j] < adj[j-1] || (adj[j] == adj[j-1] && w[j] < w[j-1])); j-- {
				adj[j], adj[j-1] = adj[j-1], adj[j]
				w[j], w[j-1] = w[j-1], w[j]
			}
		}
	}
}

func sameCSR(t *testing.T, label string, want, got *CSR) {
	t.Helper()
	canonicalizeRows(want)
	canonicalizeRows(got)
	identicalCSR(t, label, want, got)
}

// TestBuildCSREquivalentToReference is the old-vs-new builder wall:
// on randomized edge lists across the full option grid (weighted,
// symmetrized, deduplicated, self-loop-dropping) and a spread of
// worker counts, the atomic-free builder must match the serial
// reference exactly once adjacency order is canonicalized (Sort), and
// its offsets must match even unsorted.
func TestBuildCSREquivalentToReference(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		n := 2 + r.Intn(300)
		m := r.Intn(6000)
		weighted := trial%2 == 0
		el := randomEdgeListDup(r, n, m, weighted, trial%3 == 0)
		for _, opt := range []BuildOptions{
			{Sort: true},
			{Symmetrize: true, Sort: true},
			{DropSelfLoops: true, Sort: true},
			{Symmetrize: true, DropSelfLoops: true, Dedup: true, Sort: true},
			{DropSelfLoops: true, Dedup: true, Sort: true},
		} {
			want := referenceCSR(el, opt)
			for _, workers := range []int{1, 2, 3, 8} {
				opt.Workers = workers
				got := BuildCSR(el, opt)
				if err := got.Validate(); err != nil {
					t.Fatalf("trial %d workers %d: %v", trial, workers, err)
				}
				sameCSR(t, "sorted csr", want, got)
			}
		}
		// Unsorted: adjacency order is only deterministic up to worker
		// count, but the row offsets never depend on it.
		want := referenceCSR(el, BuildOptions{Symmetrize: true})
		for _, workers := range []int{1, 2, 5} {
			got := BuildCSR(el, BuildOptions{Symmetrize: true, Workers: workers})
			for i := range want.Offsets {
				if got.Offsets[i] != want.Offsets[i] {
					t.Fatalf("unsorted offsets[%d] = %d, want %d", i, got.Offsets[i], want.Offsets[i])
				}
			}
		}
	}
}

// TestTransposeEquivalentToReference checks the atomic-free transpose
// against a serial per-row scatter (the pre-rewrite implementation's
// output order: in-neighbors ascending by source).
func TestTransposeEquivalentToReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 2 + r.Intn(200)
		el := randomEdgeListDup(r, n, r.Intn(4000), trial%2 == 1, true)
		c := BuildCSR(el, BuildOptions{Sort: true, Workers: 2})

		want := &CSR{NumVertices: n, Offsets: make([]int64, n+1), Adj: make([]VID, len(c.Adj))}
		if c.Weights != nil {
			want.Weights = make([]float32, len(c.Weights))
		}
		for _, u := range c.Adj {
			want.Offsets[u+1]++
		}
		for i := 1; i <= n; i++ {
			want.Offsets[i] += want.Offsets[i-1]
		}
		cursors := make([]int64, n)
		copy(cursors, want.Offsets[:n])
		for v := 0; v < n; v++ {
			for i := c.Offsets[v]; i < c.Offsets[v+1]; i++ {
				u := c.Adj[i]
				want.Adj[cursors[u]] = VID(v)
				if c.Weights != nil {
					want.Weights[cursors[u]] = c.Weights[i]
				}
				cursors[u]++
			}
		}
		for _, workers := range []int{1, 2, 4} {
			got := Transpose(c, workers)
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			sameCSR(t, "transpose", want, got)
		}
	}
}

// identicalCSR fails unless got matches want byte for byte: offsets,
// adjacency order and weight layout, with no canonicalization.
func identicalCSR(t *testing.T, label string, want, got *CSR) {
	t.Helper()
	if got.NumVertices != want.NumVertices || len(got.Offsets) != len(want.Offsets) ||
		len(got.Adj) != len(want.Adj) || (got.Weights == nil) != (want.Weights == nil) {
		t.Fatalf("%s: shape differs", label)
	}
	for i := range want.Offsets {
		if got.Offsets[i] != want.Offsets[i] {
			t.Fatalf("%s: offsets[%d] = %d, want %d", label, i, got.Offsets[i], want.Offsets[i])
		}
	}
	for i := range want.Adj {
		if got.Adj[i] != want.Adj[i] {
			t.Fatalf("%s: adj[%d] = %d, want %d", label, i, got.Adj[i], want.Adj[i])
		}
	}
	for i := range want.Weights {
		if got.Weights[i] != want.Weights[i] {
			t.Fatalf("%s: weights[%d] = %v, want %v", label, i, got.Weights[i], want.Weights[i])
		}
	}
}

// checkRowsOrdered fails unless every row is ascending (strictly, when
// strict) and each run of equal neighbors is ordered by weight.
func checkRowsOrdered(t *testing.T, label string, c *CSR, strict bool) {
	t.Helper()
	for v := 0; v < c.NumVertices; v++ {
		adj, ws := c.Neighbors(VID(v)), c.NeighborWeights(VID(v))
		for i := 1; i < len(adj); i++ {
			switch {
			case adj[i] < adj[i-1]:
				t.Fatalf("%s: row %d descends at %d (%d after %d)", label, v, i, adj[i], adj[i-1])
			case adj[i] == adj[i-1] && strict:
				t.Fatalf("%s: row %d repeats neighbor %d", label, v, adj[i])
			case adj[i] == adj[i-1] && ws != nil && ws[i] < ws[i-1]:
				t.Fatalf("%s: row %d ties on %d out of weight order", label, v, adj[i])
			}
		}
	}
}

// shuffleRows permutes every row (weights alongside), so a consumer
// cannot inherit order from its input.
func shuffleRows(c *CSR, r *rand.Rand) {
	for v := 0; v < c.NumVertices; v++ {
		adj, ws := c.Neighbors(VID(v)), c.NeighborWeights(VID(v))
		r.Shuffle(len(adj), func(i, j int) {
			adj[i], adj[j] = adj[j], adj[i]
			if ws != nil {
				ws[i], ws[j] = ws[j], ws[i]
			}
		})
	}
}

// TestTransposeRowsStrictlyAscending: workers own ascending source
// ranges and reserve cumulative sub-ranges, so for any deduplicated
// input — here with its rows shuffled — every transposed row is
// strictly ascending, and the result is the same at every worker
// count.
func TestTransposeRowsStrictlyAscending(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 8; trial++ {
		n := 2 + r.Intn(400)
		el := randomEdgeListDup(r, n, 2000+r.Intn(10000), trial%2 == 0, trial%3 == 0)
		c := BuildCSR(el, BuildOptions{Symmetrize: !el.Directed, DropSelfLoops: true, Dedup: true})
		shuffleRows(c, r)
		var first *CSR
		for _, workers := range []int{1, 2, 3, 8} {
			tr := Transpose(c, workers)
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			checkRowsOrdered(t, "transpose", tr, true)
			if first == nil {
				first = tr
				continue
			}
			identicalCSR(t, "transpose across workers", first, tr)
		}
	}
}

// TestBuildCSRSortedRowsCanonical: BuildCSR with Sort or Dedup emits
// rows ascending with parallel edges ordered by weight, byte-identical
// to the comparison-sort oracle with no canonicalizeRows pass, at
// every worker count and for any order of the input edges.
func TestBuildCSRSortedRowsCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		n := 2 + r.Intn(300)
		el := randomEdgeListDup(r, n, 2000+r.Intn(6000), trial%2 == 0, trial%3 == 0)
		shuffled := *el
		shuffled.Edges = append([]Edge(nil), el.Edges...)
		r.Shuffle(len(shuffled.Edges), func(i, j int) {
			shuffled.Edges[i], shuffled.Edges[j] = shuffled.Edges[j], shuffled.Edges[i]
		})
		for _, opt := range []BuildOptions{
			{Sort: true},
			{Symmetrize: true, Sort: true},
			{Dedup: true},
			{Symmetrize: true, DropSelfLoops: true, Dedup: true, Sort: true},
		} {
			want := referenceCSR(el, opt)
			for _, workers := range []int{1, 2, 3, 8} {
				opt.Workers = workers
				got := BuildCSR(el, opt)
				checkRowsOrdered(t, "sorted build", got, opt.Dedup)
				identicalCSR(t, "sorted build", want, got)
				identicalCSR(t, "shuffled input", want, BuildCSR(&shuffled, opt))
			}
		}
	}
}
