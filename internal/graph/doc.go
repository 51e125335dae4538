// Package graph provides the shared graph representations used by all
// engines: unsorted edge lists (the Graph500 "kernel 0" output),
// compressed sparse row (CSR) structures, and a delta/varint
// byte-compressed adjacency variant (CompressedCSR), along with
// parallel builders and degree utilities.
//
// Vertices are dense integers in [0, N). Edge weights are float32 in
// (0, 1], matching the Graph500 SSSP specification; unweighted graphs
// carry a nil weight slice. All builders are deterministic for a fixed
// input regardless of parallelism.
//
// # Representations
//
// EdgeList is the unstructured input every engine homogenizes from.
// CSR is the canonical adjacency structure: Offsets (int64 row
// starts), Adj (uint32 neighbor IDs), optional parallel Weights.
// BuildCSR and Transpose construct it with zero per-edge atomics
// (per-worker degree histograms merged by parallel.ScanInt64, then a
// scatter into per-(worker,vertex) reserved sub-ranges).
//
// No builder runs a comparison sort. Transpose workers own contiguous,
// ascending source ranges and reserve cumulative sub-ranges in worker
// order, so every transposed row is ascending at any worker count.
// BuildCSR with Sort or Dedup therefore builds in two scatters: first
// keyed by destination (rows hold sources), then a transpose back
// keyed by source. Dedup is fused into that transpose: a per-worker
// marker of the last source placed in each row spots a repeated pair
// in both the count and the scatter pass, and a repeat only folds its
// weight into the copy already placed (the minimum wins). Without
// Dedup, runs of parallel edges are ordered by weight. SortAdjacency
// runs the same stable scatter twice.
//
// CompressedCSR is the Ligra+/GBBS-style byte-compressed sibling for
// bandwidth-bound traversal: each vertex's sorted neighbor list is
// stored as a varint degree, a zigzag-varint first-neighbor delta from
// the vertex ID, and unsigned varint gaps between consecutive
// neighbors. CompressCSR builds it from a sorted CSR with the same
// atomic-free discipline (per-vertex byte sizes merged by ScanInt64,
// then a range-reserved encode into one shared byte buffer), so the
// byte layout is deterministic at any worker count. Kernels decode on
// the fly through NeighborDecoder (allocation-free, reports bytes
// consumed so cost models can charge exactly the decoded prefix) or
// DecodeNeighbors (scratch-buffer bulk decode). Weights are not
// compressed; weighted kernels keep the raw CSR.
package graph
