package powergraph

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/hpcl-repro/epg/internal/graph"
)

// Replica accumulators. PowerGraph's gather phase does not write to a
// shared vertex value: each shard accumulates into its local replica
// of the vertex, and the ghost-synchronization exchange combines the
// replicas at the master. This file reproduces that layout: every
// (vertex, shard) replica pair owns one slot in a flat array, shard
// by shard (each shard's replicas contiguous, in vertex order), so a
// shard's gather writes stay within its own block. repSlots lists
// each vertex's slots in ascending shard order, repSlots[repOff[v]:
// repOff[v+1]], and slotVertex maps a slot back to its vertex (an
// edge stores only its destination's slot). Gather writes are
// shard-local (no atomics), and the combine folds a vertex's slots in
// ascending shard order — so gather results, including floating-point
// sums, are bit-identical across runs and real worker counts.

// slotTable numbers the replica slots: per shard, a bitmap of the
// vertices it replicates, and per bitmap word the count of replica
// slots before it (earlier shards included). A slot is then a
// prefix count plus one popcount, from tables a few bits per vertex
// per shard wide.
type slotTable struct {
	words  int // bitmap words per shard
	bitmap []uint64
	before []uint32
}

func newSlotTable(replicas []uint64, shards int) *slotTable {
	t := &slotTable{words: (len(replicas) + 63) / 64}
	t.bitmap = make([]uint64, shards*t.words)
	t.before = make([]uint32, shards*t.words)
	for v, mask := range replicas {
		for m := mask; m != 0; m &= m - 1 {
			t.bitmap[bits.TrailingZeros64(m)*t.words+v>>6] |= 1 << uint(v&63)
		}
	}
	var c uint32
	for i, w := range t.bitmap {
		t.before[i] = c
		c += uint32(bits.OnesCount64(w))
	}
	return t
}

// slot returns the accumulator index of vertex v's replica on shard s.
// s must be set in v's replica mask.
func (t *slotTable) slot(v graph.VID, s int) uint32 {
	i := s*t.words + int(v>>6)
	return t.before[i] + uint32(bits.OnesCount64(t.bitmap[i]&(1<<(v&63)-1)))
}

// buildShards numbers the replica slots, lists each vertex's slots,
// and lays out every shard in the cut's stream order from placed, the
// per-edge shard sequence, sized exactly from loads (edges) and runs,
// with each edge's and run's slot resolved once.
func (inst *Instance) buildShards(placed []uint8, loads, runs []int64) error {
	if inst.totalRep > math.MaxUint32 {
		return fmt.Errorf("powergraph: %d replica slots overflow 32-bit slot indices", inst.totalRep)
	}
	for s, load := range loads {
		if load > math.MaxUint32 {
			return fmt.Errorf("powergraph: shard %d holds %d edges, over 32-bit run bounds", s, load)
		}
	}
	tab := newSlotTable(inst.replicas, len(loads))
	inst.repOff = make([]int64, inst.n+1)
	inst.repSlots = make([]uint32, 0, inst.totalRep)
	inst.slotVertex = make([]graph.VID, inst.totalRep)
	for v, mask := range inst.replicas {
		for m := mask; m != 0; m &= m - 1 {
			slot := tab.slot(graph.VID(v), bits.TrailingZeros64(m))
			inst.repSlots = append(inst.repSlots, slot)
			inst.slotVertex[slot] = graph.VID(v)
		}
		inst.repOff[v+1] = int64(len(inst.repSlots))
	}

	inst.shards = make([]shard, len(loads))
	for s, load := range loads {
		inst.shards[s].runs = make([]shardRun, 0, runs[s])
		inst.shards[s].edges = make([]shardEdge, 0, load)
	}
	out := inst.out
	for v := 0; v < inst.n; v++ {
		src := graph.VID(v)
		ws := out.NeighborWeights(src)
		for j, dst := range out.Neighbors(src) {
			s := int(placed[out.Offsets[v]+int64(j)])
			sh := &inst.shards[s]
			if n := len(sh.runs); n == 0 || sh.runs[n-1].src != src {
				sh.runs = append(sh.runs, shardRun{src: src, srcSlot: tab.slot(src, s)})
			}
			var w float32
			if ws != nil {
				w = ws[j]
			}
			sh.edges = append(sh.edges, shardEdge{slot: tab.slot(dst, s), w: w})
			sh.runs[len(sh.runs)-1].end = uint32(len(sh.edges))
		}
	}
	return nil
}

// slots returns v's replica slots in ascending shard order; folding
// them in that order is the deterministic combine.
func (inst *Instance) slots(v graph.VID) []uint32 {
	return inst.repSlots[inst.repOff[v]:inst.repOff[v+1]]
}
