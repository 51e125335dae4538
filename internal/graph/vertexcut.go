package graph

import "math/bits"

// MaxVertexCutShards bounds the vertex-cut width: per-vertex replica
// sets are one 64-bit mask.
const MaxVertexCutShards = 64

// VertexCutStats summarizes a greedy vertex-cut partition of a CSR's
// directed adjacency: which shards replicate each vertex, how many
// edges each shard carries, and the aggregate replica count (the ghost
// synchronization volume of a PowerGraph-style engine).
type VertexCutStats struct {
	Shards   int
	Replicas []uint64 // per-vertex shard mask
	Loads    []int64  // edges placed per shard
	TotalRep int64    // sum of popcounts over Replicas
}

// GreedyVertexCut partitions the directed adjacency of c into at most
// MaxVertexCutShards shards with PowerGraph's greedy streaming
// heuristic: each edge goes to the least-loaded shard already holding
// one of its endpoints (or the globally least-loaded shard when
// neither endpoint is placed yet), lowest shard index on ties,
// replicating both endpoints there. Edges stream in canonical order —
// source vertex ascending, adjacency order within each source — so
// the cut is a pure function of (c, shards). assign, when non-nil, is
// called once per edge with the chosen shard; engines use it to
// materialize per-shard edge lists, while modeling-only callers (the
// cluster partitioner) pass nil and keep just the stats.
//
// The choice needs no per-candidate scan: shards are grouped into
// levels of equal load, kept in ascending load order as one shard
// mask per level, so the least-loaded candidate is the lowest set bit
// of the first level that meets the candidate mask, and a placement
// moves that one bit up one level.
func GreedyVertexCut(c *CSR, shards int, assign func(src, dst VID, w float32, shard int)) *VertexCutStats {
	if shards > MaxVertexCutShards {
		shards = MaxVertexCutShards
	}
	if shards < 1 {
		shards = 1
	}
	st := &VertexCutStats{
		Shards:   shards,
		Replicas: make([]uint64, c.NumVertices),
		Loads:    make([]int64, shards),
	}
	all := ^uint64(0) >> uint(MaxVertexCutShards-shards)
	lv := cutLevels{n: 1}
	lv.mask[0] = all
	for v := 0; v < c.NumVertices; v++ {
		src := VID(v)
		adj := c.Neighbors(src)
		ws := c.NeighborWeights(src)
		for i, dst := range adj {
			cand := st.Replicas[src] | st.Replicas[dst]
			if cand == 0 {
				cand = all
			}
			best := lv.place(cand)
			if assign != nil {
				var w float32
				if ws != nil {
					w = ws[i]
				}
				assign(src, dst, w, best)
			}
			st.Loads[best]++
			bit := uint64(1) << uint(best)
			st.Replicas[src] |= bit
			st.Replicas[dst] |= bit
		}
	}
	for _, mask := range st.Replicas {
		st.TotalRep += int64(bits.OnesCount64(mask))
	}
	return st
}

// cutLevels groups shards by load: level i holds the shards whose
// load is load[i], and loads strictly ascend with i. Every shard sits
// in exactly one level, so there are at most MaxVertexCutShards.
type cutLevels struct {
	n    int
	load [MaxVertexCutShards]int64
	mask [MaxVertexCutShards]uint64
}

// place returns the least-loaded shard in cand (lowest index on ties)
// and moves it up one load unit.
func (lv *cutLevels) place(cand uint64) int {
	i := 0
	for lv.mask[i]&cand == 0 {
		i++
	}
	bit := lv.mask[i] & cand & -(lv.mask[i] & cand)
	up := lv.load[i] + 1
	switch {
	case i+1 < lv.n && lv.load[i+1] == up:
		lv.mask[i+1] |= bit
	case lv.mask[i] == bit:
		// The shard was alone on its level: the level moves up.
		lv.load[i] = up
		return bits.TrailingZeros64(bit)
	default:
		copy(lv.load[i+2:lv.n+1], lv.load[i+1:lv.n])
		copy(lv.mask[i+2:lv.n+1], lv.mask[i+1:lv.n])
		lv.n++
		lv.load[i+1], lv.mask[i+1] = up, bit
	}
	lv.mask[i] &^= bit
	if lv.mask[i] == 0 {
		copy(lv.load[i:lv.n-1], lv.load[i+1:lv.n])
		copy(lv.mask[i:lv.n-1], lv.mask[i+1:lv.n])
		lv.n--
	}
	return bits.TrailingZeros64(bit)
}

// ReplicationFactor returns the average number of shards holding each
// non-isolated vertex — the classic vertex-cut quality metric.
func (st *VertexCutStats) ReplicationFactor() float64 {
	present := 0
	for _, mask := range st.Replicas {
		if mask != 0 {
			present++
		}
	}
	if present == 0 {
		return 0
	}
	return float64(st.TotalRep) / float64(present)
}

// Owners derives a per-vertex home assignment from the cut: each
// replicated vertex lives on its lowest replica shard (the
// deterministic master), and isolated vertices fall back to the
// blocked 1D assignment so every vertex has exactly one home. This is
// the 2D ("vertex-cut") owner table the modeled cluster partitioner
// hands to simmachine.SetCluster.
func (st *VertexCutStats) Owners() []int16 {
	n := len(st.Replicas)
	owners := make([]int16, n)
	for v, mask := range st.Replicas {
		if mask != 0 {
			owners[v] = int16(bits.TrailingZeros64(mask))
		} else {
			owners[v] = int16(v * st.Shards / n)
		}
	}
	return owners
}
