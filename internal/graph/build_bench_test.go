package graph_test

// External test package: the benchmark generates its input with the
// kronecker package, which imports graph.

import (
	"testing"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
)

var buildSink *graph.CSR

// BenchmarkBuildCSRKron16 times the homogenizing build every engine
// runs on its input: weighted kron-16, symmetrized, self-loops
// dropped, deduplicated and sorted. `make bench-build` runs it.
func BenchmarkBuildCSRKron16(b *testing.B) {
	el := kronecker.Generate(kronecker.Params{Scale: 16, Seed: 42})
	opt := graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true, Sort: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildSink = graph.BuildCSR(el, opt)
	}
}
