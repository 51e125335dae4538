package powergraph

import (
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// Cost constants: GAS edge processing is an order of magnitude
// heavier than a tight CSR loop — each gather goes through the vertex
// program dispatch, edge iterator, and accumulator locking.
var (
	costGatherEdge  = simmachine.Cost{Cycles: 55, Bytes: 44, Atomics: 1}
	costScanEdge    = simmachine.Cost{Cycles: 4, Bytes: 6}
	costApplyVertex = simmachine.Cost{Cycles: 40, Bytes: 40}
	costSyncReplica = simmachine.Cost{Cycles: 10, Bytes: 28}
	costLoadEdge    = simmachine.Cost{Cycles: 45, Bytes: 56}
	costLCCCheck    = simmachine.Cost{Cycles: 18, Bytes: 20}
)

// maxShards bounds the vertex-cut width (replica masks are one word);
// the shared partitioner enforces the same bound.
const maxShards = graph.MaxVertexCutShards

// Engine is the PowerGraph analogue.
type Engine struct{}

// New returns the engine.
func New() *Engine { return &Engine{} }

// Name implements engines.Engine.
func (e *Engine) Name() string { return "PowerGraph" }

// SeparateConstruction implements engines.Engine: PowerGraph ingests
// and partitions while reading the input.
func (e *Engine) SeparateConstruction() bool { return false }

// Has implements engines.Engine: the toolkits cover everything here
// except BFS.
func (e *Engine) Has(alg engines.Algorithm) bool {
	switch alg {
	case engines.SSSP, engines.PageRank, engines.CDLP, engines.LCC, engines.WCC:
		return true
	}
	return false
}

// shard is one vertex-cut partition in the cut's stream order:
// source-ascending runs of edges. Each edge carries its destination's
// replica-accumulator slot on this shard, and each run its source's,
// so gathers index accumulators directly (see accum.go).
type shard struct {
	runs  []shardRun
	edges []shardEdge
}

// shardRun is one source's edges on a shard: edges[prev end : end].
type shardRun struct {
	src     graph.VID
	srcSlot uint32
	end     uint32
}

// shardEdge is one edge of a run: the destination's slot on this
// shard (slotVertex names the destination) and the edge weight.
type shardEdge struct {
	slot uint32
	w    float32
}

// Instance is a loaded, partitioned PowerGraph graph.
type Instance struct {
	m        *simmachine.Machine
	n        int
	directed bool
	weighted bool

	shards     []shard
	replicas   []uint64    // per-vertex shard mask
	totalRep   int64       // sum of popcounts: ghost sync volume
	repOff     []int64     // per-vertex offset into repSlots (see accum.go)
	repSlots   []uint32    // each vertex's replica slots, ascending shard
	slotVertex []graph.VID // the vertex of each slot

	// Homogenized adjacency retained for apply-side degree lookups
	// and the neighborhood kernels (CDLP/LCC).
	out *graph.CSR
	in  *graph.CSR
}

// Load implements engines.Engine: read, homogenize, and greedily
// vertex-cut partition the edges, all charged as one phase.
func (e *Engine) Load(el *graph.EdgeList, m *simmachine.Machine) (engines.Instance, error) {
	if err := el.Validate(); err != nil {
		return nil, err
	}
	out := graph.BuildCSR(el, graph.BuildOptions{
		Symmetrize:    !el.Directed,
		DropSelfLoops: true,
		Dedup:         true,
		Sort:          true,
	})
	var in *graph.CSR
	if el.Directed {
		in = graph.Transpose(out, 0)
	} else {
		in = out
	}
	inst := &Instance{
		m: m, n: out.NumVertices,
		directed: el.Directed, weighted: el.Weighted,
		out: out, in: in,
	}

	p := m.Threads()
	if p > maxShards {
		p = maxShards
	}
	if p < 1 {
		p = 1
	}
	// Partition the deduplicated directed adjacency (the engine's true
	// edge set) with the shared greedy streaming vertex-cut — the same
	// machinery the modeled cluster's 2D partitioner uses. The callback
	// records each edge's shard and counts each shard's runs (a run
	// opens when a shard sees a new source); the shards are laid out
	// once the replica masks, and with them the slots, are final.
	placed := make([]uint8, 0, out.NumEdges())
	runs := make([]int64, p)
	runSrc := make([]int64, p)
	for s := range runSrc {
		runSrc[s] = -1
	}
	cut := graph.GreedyVertexCut(out, p, func(src, _ graph.VID, _ float32, shard int) {
		placed = append(placed, uint8(shard))
		if runSrc[shard] != int64(src) {
			runSrc[shard] = int64(src)
			runs[shard]++
		}
	})
	inst.replicas = cut.Replicas
	inst.totalRep = cut.TotalRep
	if err := inst.buildShards(placed, cut.Loads, runs); err != nil {
		return nil, err
	}

	m.FileRead(int64(len(el.Edges))*16, true)
	m.ParallelFor(int(out.NumEdges()), 2048, simmachine.Dynamic, func(lo, hi int, w *simmachine.W) {
		w.Charge(costLoadEdge.Scale(float64(hi - lo)))
	})
	return inst, nil
}

// BuildStructure implements engines.Instance: a no-op; partitioning
// happened during Load.
func (inst *Instance) BuildStructure() {}

// ReplicationFactor returns the average number of shards holding each
// non-isolated vertex — PowerGraph's classic partition quality metric.
func (inst *Instance) ReplicationFactor() float64 {
	present := 0
	for _, mask := range inst.replicas {
		if mask != 0 {
			present++
		}
	}
	if present == 0 {
		return 0
	}
	return float64(inst.totalRep) / float64(present)
}

// syncGhosts charges one ghost-exchange round (every replica's state
// shipped to its master and back).
func (inst *Instance) syncGhosts() {
	rep := inst.totalRep
	inst.m.ParallelFor(int(rep), 4096, simmachine.Dynamic, func(lo, hi int, w *simmachine.W) {
		w.Charge(costSyncReplica.Scale(float64(hi - lo)))
	})
}

// gatherSweep runs one GAS gather phase: every shard scans its local
// edges; body is invoked once per run (one source's edges on the
// shard) whose source is active (a bitmap frontier; nil means
// all-active), and accumulates into that shard's replica slots
// (shard-local writes: no atomics, see accum.go). The scan cost covers
// the engine's per-edge dispatch even for inactive edges. It returns
// the processed edge count (deterministic: the active set is fixed
// before the sweep).
func (inst *Instance) gatherSweep(active *parallel.Bitmap, body func(r shardRun, edges []shardEdge)) int64 {
	shards := inst.shards
	processedBy := make([]int64, len(shards))
	inst.m.ForEachThread(func(tid int, w *simmachine.W) {
		if tid >= len(shards) {
			return
		}
		sh := shards[tid]
		var processed int64
		start := uint32(0)
		for _, r := range sh.runs {
			if active == nil || active.Test(int(r.src)) {
				processed += int64(r.end - start)
				body(r, sh.edges[start:r.end])
			}
			start = r.end
		}
		processedBy[tid] = processed
		w.Charge(costScanEdge.Scale(float64(len(sh.edges))))
		w.Charge(costGatherEdge.Scale(float64(processed)))
	})
	var total int64
	for _, p := range processedBy {
		total += p
	}
	return total
}

// BFS implements engines.Instance: PowerGraph ships no BFS reference.
func (inst *Instance) BFS(graph.VID) (*engines.BFSResult, error) {
	return nil, engines.ErrUnsupported
}
