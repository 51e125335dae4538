package powergraph

import (
	"errors"
	"math/bits"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/simmachine"
	"github.com/hpcl-repro/epg/internal/verify"
)

func machine(threads int) *simmachine.Machine {
	return simmachine.New(simmachine.Haswell72(), threads)
}

func TestMetadata(t *testing.T) {
	e := New()
	if e.Name() != "PowerGraph" {
		t.Errorf("name = %q", e.Name())
	}
	if e.SeparateConstruction() {
		t.Error("PowerGraph ingests and partitions while reading")
	}
	if e.Has(engines.BFS) {
		t.Error("PowerGraph provides no BFS reference implementation")
	}
}

func TestBFSUnsupported(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 8, Seed: 1})
	inst, err := New().Load(el, machine(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.BFS(0); !errors.Is(err, engines.ErrUnsupported) {
		t.Errorf("BFS err = %v, want ErrUnsupported", err)
	}
}

func TestVertexCutProperties(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 10, Seed: 5})
	inst, err := New().Load(el, machine(8))
	if err != nil {
		t.Fatal(err)
	}
	pg := inst.(*Instance)
	// Every directed edge placed exactly once.
	var placed int64
	for _, shard := range pg.shards {
		placed += int64(len(shard.edges))
	}
	if placed != pg.out.NumEdges() {
		t.Errorf("placed %d edges, graph has %d", placed, pg.out.NumEdges())
	}
	// Shard loads balanced within 2x of the mean (greedy cut).
	mean := float64(placed) / float64(len(pg.shards))
	for s, shard := range pg.shards {
		if float64(len(shard.edges)) > 2*mean+64 {
			t.Errorf("shard %d holds %d edges, mean %.0f", s, len(shard.edges), mean)
		}
	}
	// Replication factor: at least 1, and well below the shard
	// count (greedy placement reuses endpoints' shards).
	rf := pg.ReplicationFactor()
	if rf < 1 {
		t.Errorf("replication factor %v < 1", rf)
	}
	if rf > float64(len(pg.shards)) {
		t.Errorf("replication factor %v exceeds shard count %d", rf, len(pg.shards))
	}
}

// TestShardLayout checks the source-run layout Load builds: shards
// sized exactly, runs strictly source-ascending and covering the
// shard's edges, every edge a real adjacency entry, and every slot
// the (vertex, shard) replica's one accumulator — the slots form a
// permutation of [0, totalRep), each shard's a contiguous block.
func TestShardLayout(t *testing.T) {
	for _, directed := range []bool{false, true} {
		el := kronecker.Generate(kronecker.Params{Scale: 10, Seed: 5})
		el.Directed = directed
		inst, err := New().Load(el, machine(8))
		if err != nil {
			t.Fatal(err)
		}
		pg := inst.(*Instance)
		slotOf := func(v graph.VID, s int) uint32 {
			mask := pg.replicas[v]
			if mask>>uint(s)&1 == 0 {
				t.Fatalf("vertex %d has an edge on shard %d outside its replica mask", v, s)
			}
			return pg.slots(v)[bits.OnesCount64(mask&(1<<uint(s)-1))]
		}
		seen := make([]bool, pg.totalRep)
		for v := range pg.replicas {
			for _, slot := range pg.slots(graph.VID(v)) {
				if seen[slot] || pg.slotVertex[slot] != graph.VID(v) {
					t.Fatalf("slot %d assigned twice or not mapped back to vertex %d", slot, v)
				}
				seen[slot] = true
			}
		}
		var placed int64
		next := uint32(0)
		for s, sh := range pg.shards {
			if len(sh.edges) != cap(sh.edges) || len(sh.runs) != cap(sh.runs) {
				t.Errorf("shard %d not sized exactly: edges %d/%d runs %d/%d", s, len(sh.edges), cap(sh.edges), len(sh.runs), cap(sh.runs))
			}
			start := uint32(0)
			for i, r := range sh.runs {
				if i > 0 && r.src <= sh.runs[i-1].src || r.end <= start {
					t.Fatalf("shard %d run %d {src %d end %d} out of order", s, i, r.src, r.end)
				}
				if r.srcSlot != slotOf(r.src, s) {
					t.Fatalf("shard %d run %d: srcSlot %d, want %d", s, i, r.srcSlot, slotOf(r.src, s))
				}
				adj, ws := pg.out.Neighbors(r.src), pg.out.NeighborWeights(r.src)
				for _, e := range sh.edges[start:r.end] {
					dst := pg.slotVertex[e.slot]
					j := slices.Index(adj, dst)
					if j < 0 || ws[j] != e.w {
						t.Fatalf("shard %d: edge %d->%d (w %v) not in the adjacency", s, r.src, dst, e.w)
					}
					if e.slot != slotOf(dst, s) {
						t.Fatalf("shard %d: edge %d->%d slot %d, want %d", s, r.src, dst, e.slot, slotOf(dst, s))
					}
				}
				start = r.end
			}
			if int(start) != len(sh.edges) {
				t.Fatalf("shard %d: runs cover %d of %d edges", s, start, len(sh.edges))
			}
			placed += int64(len(sh.edges))
			// Shard s's slots are the next contiguous block.
			for v, mask := range pg.replicas {
				if mask>>uint(s)&1 == 1 {
					if got := slotOf(graph.VID(v), s); got != next {
						t.Fatalf("shard %d: vertex %d slot %d, want %d (contiguous, vertex order)", s, v, got, next)
					}
					next++
				}
			}
		}
		if placed != pg.out.NumEdges() || int64(next) != pg.totalRep {
			t.Errorf("placed %d of %d edges, numbered %d of %d slots", placed, pg.out.NumEdges(), next, pg.totalRep)
		}
	}
}

func TestGreedyCutBeatsWorstCase(t *testing.T) {
	// On a star graph the hub must be replicated, but leaves
	// should not be: replication factor stays near 1.
	n := 512
	el := &graph.EdgeList{NumVertices: n, Directed: true}
	for i := 1; i < n; i++ {
		el.Edges = append(el.Edges, graph.Edge{Src: 0, Dst: graph.VID(i)})
	}
	inst, err := New().Load(el, machine(8))
	if err != nil {
		t.Fatal(err)
	}
	pg := inst.(*Instance)
	if rf := pg.ReplicationFactor(); rf > 1.2 {
		t.Errorf("star-graph replication factor %v, want near 1 (only the hub replicates)", rf)
	}
}

func TestGhostSyncCharged(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 9, Seed: 2})
	m := machine(8)
	inst, err := New().Load(el, m)
	if err != nil {
		t.Fatal(err)
	}
	pg := inst.(*Instance)
	before := m.Elapsed()
	pg.syncGhosts()
	if m.Elapsed() <= before {
		t.Error("ghost sync charged no time")
	}
}

func TestSSSPAndWCCCorrect(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 9, Seed: 7})
	p := verify.Prepare(el)
	inst, err := New().Load(el, machine(8))
	if err != nil {
		t.Fatal(err)
	}
	var root graph.VID
	for v := 0; v < p.Out.NumVertices; v++ {
		if p.Out.Degree(graph.VID(v)) > 1 {
			root = graph.VID(v)
			break
		}
	}
	sp, err := inst.SSSP(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ValidateSSSP(p, sp, verify.SSSP(p, root)); err != nil {
		t.Error(err)
	}
	wc, err := inst.WCC()
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ValidateWCC(wc, verify.WCC(p)); err != nil {
		t.Error(err)
	}
}

func TestShardCountCapped(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 6, Seed: 1})
	inst, err := New().Load(el, machine(128))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(inst.(*Instance).shards); got > maxShards {
		t.Errorf("shards = %d, cap is %d", got, maxShards)
	}
}

func TestFrameworkOverheadVisible(t *testing.T) {
	// The GAS machinery must make PowerGraph's SSSP markedly
	// slower (modeled) than GAP-grade relaxation on small graphs —
	// the paper's explanation for PowerGraph's scale-22 numbers.
	el := kronecker.Generate(kronecker.Params{Scale: 11, Seed: 4})
	m := machine(32)
	inst, err := New().Load(el, m)
	if err != nil {
		t.Fatal(err)
	}
	start := m.Elapsed()
	if _, err := inst.SSSP(1); err != nil {
		t.Fatal(err)
	}
	pgTime := m.Elapsed() - start
	// One GAP-grade relaxation sweep of the whole graph.
	mRef := machine(32)
	mRef.ParallelFor(int(inst.(*Instance).out.NumEdges()), 1024, simmachine.Dynamic, func(lo, hi int, w *simmachine.W) {
		w.Charge(simmachine.Cost{Cycles: 9, Bytes: 14}.Scale(float64(hi - lo)))
	})
	if pgTime < 3*mRef.Elapsed() {
		t.Errorf("PowerGraph SSSP (%v) less than 3x a single lean sweep (%v): GAS overhead missing", pgTime, mRef.Elapsed())
	}
}
