package powergraph

import (
	"testing"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/kronecker"
)

var loadSink engines.Instance

// BenchmarkPowerGraphLoadKron16 times Load on weighted kron-16 at 32
// threads: the homogenizing build, the greedy vertex-cut and the
// shard layout. `make bench-build` runs it.
func BenchmarkPowerGraphLoadKron16(b *testing.B) {
	el := kronecker.Generate(kronecker.Params{Scale: 16, Seed: 42})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := New().Load(el, machine(32))
		if err != nil {
			b.Fatal(err)
		}
		loadSink = inst
	}
}

// BenchmarkPowerGraphPageRankKron16 times one PageRank run on weighted
// kron-16 at 32 threads, load excluded. `make bench-build` runs it.
func BenchmarkPowerGraphPageRankKron16(b *testing.B) {
	el := kronecker.Generate(kronecker.Params{Scale: 16, Seed: 42})
	inst, err := New().Load(el, machine(32))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.PageRank(engines.PROpts{}); err != nil {
			b.Fatal(err)
		}
	}
}
