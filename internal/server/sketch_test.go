package server

import (
	"math"
	"testing"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/harness"
)

func buildTestCSR(t testing.TB, name string, seed uint64) *graph.CSR {
	t.Helper()
	el, err := harness.ResolveDataset(name, harness.DatasetOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return graph.BuildCSR(el, graph.BuildOptions{
		Symmetrize:    !el.Directed,
		DropSelfLoops: true,
		Dedup:         true,
		Sort:          true,
	})
}

func TestSketchLandmarksDeterministic(t *testing.T) {
	c := buildTestCSR(t, "kron-8", 3)
	a := BuildSketch(c, 4)
	b := BuildSketch(c, 4)
	if len(a.Landmarks()) != 4 {
		t.Fatalf("landmark count %d, want 4", len(a.Landmarks()))
	}
	for i, l := range a.Landmarks() {
		if b.Landmarks()[i] != l {
			t.Fatalf("landmark %d differs: %d vs %d", i, l, b.Landmarks()[i])
		}
	}
	// Landmarks are the top-degree vertices: every landmark's degree
	// is >= every non-landmark's degree.
	inSet := map[graph.VID]bool{}
	minLandmark := int64(math.MaxInt64)
	for _, l := range a.Landmarks() {
		inSet[l] = true
		if d := c.Degree(l); d < minLandmark {
			minLandmark = d
		}
	}
	for v := 0; v < c.NumVertices; v++ {
		if !inSet[graph.VID(v)] && c.Degree(graph.VID(v)) > minLandmark {
			t.Fatalf("vertex %d (degree %d) outranks a landmark (min degree %d)",
				v, c.Degree(graph.VID(v)), minLandmark)
		}
	}
}

// TestSketchIsUpperBound checks the triangle-inequality contract the
// degraded mode relies on: the sketch never underestimates, and is
// exact between a landmark and any vertex.
func TestSketchIsUpperBound(t *testing.T) {
	c := buildTestCSR(t, "kron-8", 3)
	s := BuildSketch(c, 4)
	// True hop distances from vertex 0 via the same serial BFS.
	truth := bfsHops(c, 0)
	for v := 0; v < c.NumVertices; v++ {
		est := s.EstimateHops(0, graph.VID(v))
		switch {
		case truth[v] < 0:
			// Unreachable in truth: any landmark path would contradict
			// connectivity, so the sketch must also say unreachable.
			if est >= 0 {
				t.Fatalf("v=%d unreachable but sketch says %v", v, est)
			}
		case est < 0:
			// Reachable but no landmark covers the pair: legal (sketch
			// is partial), though rare on a kron component.
		case est < float64(truth[v]):
			t.Fatalf("v=%d sketch %v under true distance %d", v, est, truth[v])
		}
	}
	// Exactness through a landmark: d(L, v) estimates as exactly the
	// BFS distance from L.
	l := s.Landmarks()[0]
	truthL := bfsHops(c, l)
	for v := 0; v < c.NumVertices; v++ {
		if truthL[v] < 0 {
			continue
		}
		if est := s.EstimateHops(l, graph.VID(v)); est != float64(truthL[v]) {
			t.Fatalf("landmark estimate d(%d,%d)=%v, true %d", l, v, est, truthL[v])
		}
	}
}

func TestSketchWeightedUpperBound(t *testing.T) {
	c := buildTestCSR(t, "kron-8", 3)
	if c.Weights == nil {
		t.Fatal("kron should be weighted")
	}
	s := BuildSketch(c, 4)
	truth := dijkstra(c, 0)
	for v := 0; v < c.NumVertices; v++ {
		est := s.EstimateDist(0, graph.VID(v))
		if math.IsInf(truth[v], 1) {
			if est >= 0 {
				t.Fatalf("v=%d unreachable but weighted sketch says %v", v, est)
			}
			continue
		}
		if est >= 0 && est < truth[v]-1e-12 {
			t.Fatalf("v=%d weighted sketch %v under true %v", v, est, truth[v])
		}
	}
}

func TestSketchIdentityAndEmpty(t *testing.T) {
	c := buildTestCSR(t, "kron-8", 3)
	s := BuildSketch(c, 4)
	if got := s.EstimateHops(5, 5); got != 0 {
		t.Fatalf("self-distance %v, want 0", got)
	}
	empty := BuildSketch(c, 0)
	if got := empty.EstimateHops(0, 1); got != -1 {
		t.Fatalf("empty sketch estimate %v, want -1", got)
	}
	if got := empty.EstimateDist(0, 1); got != -1 {
		t.Fatalf("empty weighted sketch estimate %v, want -1", got)
	}
}
