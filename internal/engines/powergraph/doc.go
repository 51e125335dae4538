// Package powergraph implements a Go analogue of PowerGraph (Gonzalez
// et al., OSDI'12), the study's one distributed-memory system, run on
// a single node as in the paper.
//
// Architectural character preserved from the original:
//
//   - edges are partitioned across shards by a greedy vertex-cut
//     placement (the "efficient edge-cut partitioning scheme" the
//     paper credits for PowerGraph's Dota-League SSSP win); vertices
//     spanning shards are replicated, and every superstep pays a
//     ghost-synchronization cost proportional to the replica count;
//   - computation follows the Gather-Apply-Scatter model: per-shard
//     gather sweeps, a synchronization exchange, a vertex-parallel
//     apply, and scatter-driven activation;
//   - the framework carries substantial per-edge and per-superstep
//     overhead (engine dispatch, edge iterators, replica
//     bookkeeping), which dominates on small graphs — the paper's
//     explanation for PowerGraph's poor showing at scale 22;
//   - the toolkit provides no BFS reference implementation, so BFS
//     returns ErrUnsupported (Fig. 8's BFS panel omits PowerGraph);
//   - the graph is ingested and partitioned while reading (no
//     separately-timed construction phase).
//
// Shard layout. Load runs the cut (graph.GreedyVertexCut), then lays
// each shard out in the cut's stream order, sized exactly from the
// cut's loads: source-ascending runs {src, srcSlot, end} over edges
// {slot, w}. Replica-accumulator slots are numbered shard by shard,
// in vertex order within a shard, so a shard's gather writes stay in
// its own block; each edge carries its destination's slot (slotVertex
// maps it back to the vertex) and each run its source's, resolved
// once at load (accum.go). A gather
// sweep tests the active bitmap once per run and calls the vertex
// program's body once per active run with the source's value hoisted;
// the modeled charges stay per edge (scan for every edge, gather for
// every processed one). The apply folds each vertex's slots in
// ascending shard order, and within a slot edges accumulate in stream
// order, so float sums are bit-identical to a per-edge sweep.
//
// Known fidelity gaps: the real system's async engine (chandy-misra
// locking, per-vertex schedulers) is not reproduced — every kernel
// here runs the synchronous engine, which is also what makes its GAS
// kernels bit-deterministic (replica accumulator slots combined in
// shard order). Network serialization between machines is collapsed
// into the modeled ghost-sync cost; there is no RPC. Shard count
// follows the virtual thread count, not a cluster size. All timing is
// simmachine-modeled.
package powergraph
