package powergraph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
)

// goldenRow pins one PowerGraph step on weighted kron-12: the modeled
// clock after the step (float64 bits), a count (the replica total for
// load, iterations for PR and CDLP, relaxations for SSSP), and an
// FNV-64a hash of the step's output vectors.
type goldenRow struct {
	step    string
	elapsed uint64
	count   int64
	hash    uint64
}

// powerGraphGolden holds the modeled output of the engine as first
// recorded. Any change to the cut, the shard layout, the gather order
// or a charged cost shows here bit for bit; a deliberate change to
// the model must rewrite the table from the failure message.
var powerGraphGolden = []goldenRow{
	{"directed=false/threads=8/load", 0x3f745d2bb6797f91, 20458, 0x0},
	{"directed=false/threads=8/pr", 0x3f8b5845272435e6, 22, 0x3b516b8034f8be4},
	{"directed=false/threads=8/sssp(3927)", 0x3f8efa1fd2e0d3b8, 327152, 0x4c405367da2d9a73},
	{"directed=false/threads=8/sssp(1731)", 0x3f9198eb3c3cea7d, 399056, 0xdc7be36dfc743411},
	{"directed=false/threads=8/sssp(6)", 0x3f939523ad7a8a66, 377508, 0x655c312436de5fa4},
	{"directed=false/threads=8/wcc", 0x3f9568523f315a94, 0, 0x80b15ae2dbf7d862},
	{"directed=false/threads=8/cdlp", 0x3f97a8f31c302fb4, 10, 0x63c53e15a887402a},
	{"directed=false/threads=32/load", 0x3f73f956beff3f4f, 50982, 0x0},
	{"directed=false/threads=32/pr", 0x3f85e5190099bbc0, 22, 0xd5d44b8f5a14304f},
	{"directed=false/threads=32/sssp(3927)", 0x3f89be3f4b0a04bc, 327152, 0x4c405367da2d9a73},
	{"directed=false/threads=32/sssp(1731)", 0x3f8e0789ffdd0ed7, 399056, 0xdc7be36dfc743411},
	{"directed=false/threads=32/sssp(6)", 0x3f91055cf49e6d78, 377508, 0x655c312436de5fa4},
	{"directed=false/threads=32/wcc", 0x3f92387f1dcbb62a, 0, 0x80b15ae2dbf7d862},
	{"directed=false/threads=32/cdlp", 0x3f94eb18bda9ba5e, 10, 0x63c53e15a887402a},
	{"directed=true/threads=8/load", 0x3f7424f8225a5f43, 16999, 0x0},
	{"directed=true/threads=8/pr", 0x3f80649169bff6cd, 13, 0xa56b2f4b7d81db7a},
	{"directed=true/threads=8/sssp(3927)", 0x3f8286efa88498a7, 168233, 0x4b2a6d9519f176dd},
	{"directed=true/threads=8/sssp(1731)", 0x3f8514d7ff03ae55, 203610, 0x1ddb890ca1b41193},
	{"directed=true/threads=8/sssp(6)", 0x3f87991958bd3919, 184797, 0x509133b7baf32c8d},
	{"directed=true/threads=8/wcc", 0x3f89c7806559c39e, 0, 0x80b15ae2dbf7d862},
	{"directed=true/threads=8/cdlp", 0x3f8eb55c4b741456, 10, 0xfa926b3b8092505b},
	{"directed=true/threads=32/load", 0x3f73d7e4e57b995f, 36404, 0x0},
	{"directed=true/threads=32/pr", 0x3f7db74119f9da1f, 13, 0xd9ef3a3173a39f36},
	{"directed=true/threads=32/sssp(3927)", 0x3f81400e164a6f6b, 168233, 0x4b2a6d9519f176dd},
	{"directed=true/threads=32/sssp(1731)", 0x3f841607f5a9c13d, 203610, 0x1ddb890ca1b41193},
	{"directed=true/threads=32/sssp(6)", 0x3f87091ab63b61fc, 184797, 0x509133b7baf32c8d},
	{"directed=true/threads=32/wcc", 0x3f88a093d251788d, 0, 0x80b15ae2dbf7d862},
	{"directed=true/threads=32/cdlp", 0x3f8e86f9bc32b9bb, 10, 0xfa926b3b8092505b},
}

// hashWords returns the FNV-64a hash of the little-endian words fill
// puts.
func hashWords(fill func(put func(uint64))) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	fill(func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	})
	return h.Sum64()
}

func goldenRows(t *testing.T) []goldenRow {
	t.Helper()
	base := kronecker.Generate(kronecker.Params{Scale: 12, Seed: 3})
	roots := []graph.VID{base.Edges[0].Src, base.Edges[1000].Dst, base.Edges[5000].Src}
	var rows []goldenRow
	for _, directed := range []bool{false, true} {
		el := *base
		el.Directed = directed
		for _, threads := range []int{8, 32} {
			m := machine(threads)
			inst, err := New().Load(&el, m)
			if err != nil {
				t.Fatal(err)
			}
			pg := inst.(*Instance)
			tag := fmt.Sprintf("directed=%v/threads=%d/", directed, threads)
			add := func(step string, count int64, hash uint64) {
				rows = append(rows, goldenRow{tag + step, math.Float64bits(m.Elapsed()), count, hash})
			}
			add("load", pg.totalRep, 0)

			pr, err := inst.PageRank(engines.PROpts{})
			if err != nil {
				t.Fatal(err)
			}
			add("pr", int64(pr.Iterations), hashWords(func(put func(uint64)) {
				for _, r := range pr.Rank {
					put(math.Float64bits(r))
				}
			}))
			for _, root := range roots {
				sp, err := inst.SSSP(root)
				if err != nil {
					t.Fatal(err)
				}
				add(fmt.Sprintf("sssp(%d)", root), sp.Relaxations, hashWords(func(put func(uint64)) {
					for v, d := range sp.Dist {
						put(math.Float64bits(d))
						put(uint64(sp.Parent[v]))
					}
				}))
			}
			wc, err := inst.WCC()
			if err != nil {
				t.Fatal(err)
			}
			add("wcc", 0, hashWords(func(put func(uint64)) {
				for _, c := range wc.Component {
					put(uint64(c))
				}
			}))
			cd, err := inst.CDLP(10)
			if err != nil {
				t.Fatal(err)
			}
			add("cdlp", int64(cd.Iterations), hashWords(func(put func(uint64)) {
				for _, l := range cd.Label {
					put(uint64(l))
				}
			}))
		}
	}
	return rows
}

// TestPowerGraphGolden checks PowerGraph's modeled elapsed time,
// iteration and relaxation counts, and output hashes for PR, SSSP
// (three roots), WCC and CDLP on weighted kron-12, directed and
// undirected, at 8 and 32 threads, against the recorded table.
func TestPowerGraphGolden(t *testing.T) {
	got := goldenRows(t)
	var table strings.Builder
	for _, r := range got {
		fmt.Fprintf(&table, "\t{%q, %#x, %d, %#x},\n", r.step, r.elapsed, r.count, r.hash)
	}
	if len(got) != len(powerGraphGolden) {
		t.Fatalf("golden has %d rows, run produced %d; recorded table:\n%s", len(powerGraphGolden), len(got), table.String())
	}
	for i, r := range got {
		if r != powerGraphGolden[i] {
			t.Errorf("%s: got {elapsed %v, count %d, hash %#x}, want {elapsed %v, count %d, hash %#x}",
				r.step, math.Float64frombits(r.elapsed), r.count, r.hash,
				math.Float64frombits(powerGraphGolden[i].elapsed), powerGraphGolden[i].count, powerGraphGolden[i].hash)
		}
	}
	if t.Failed() {
		t.Logf("run produced:\n%s", table.String())
	}
}
