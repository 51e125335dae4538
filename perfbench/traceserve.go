package main

import (
	"fmt"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/all"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/server"
	"github.com/hpcl-repro/epg/internal/simmachine"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// maxReplayBatches caps the serial replay of serve-mixed's stream.
const maxReplayBatches = 30

// traceServe times each serving layer from this file: construction,
// the baseline vectors and sketch, GAP kernels on the served graph,
// unqueued service per op, and, for serve-mixed, a serial replay of the
// mutation stream through MutableCSR.Apply, the Streamer methods and
// BuildSketch. It then runs the workload's load for the run's seconds,
// the first half untraced and the second half with a span around every
// Submit and Mutate, and checks every answer.
func traceServe(cfg config, res *result, el *graph.EdgeList, s *server.Server) (*result, error) {
	tr := newTracer()
	res.spans = tr
	L := res.layer
	mixed := cfg.workload == "serve-mixed"

	L["kronecker.generate_s"] = tr.do("kronecker.generate", 0, 0, func() {
		kronecker.Generate(kronecker.Params{Scale: serveScale, Seed: cfg.seed})
	})
	var csr *graph.CSR
	L["graph.build_csr_s"] = tr.do("graph.build_csr", 0, 0, func() {
		csr = graph.BuildCSR(el, graph.BuildOptions{Symmetrize: !el.Directed, DropSelfLoops: true, Dedup: true, Sort: true})
	})
	raw := graph.BuildCSR(el, graph.BuildOptions{Symmetrize: !el.Directed, DropSelfLoops: true})
	L["graph.sort_s"] = tr.do("graph.sort_adjacency", 0, 0, raw.SortAdjacency)
	var err error
	L["server.new_s"] = tr.do("server.new", 0, 0, func() {
		var fresh *server.Server
		if fresh, err = server.NewFromEdgeList(el, serverConfig(cfg)); err == nil {
			fresh.Close()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}

	// An instance set up the way the server sets up each executor.
	eng, err := all.New("GAP")
	if err != nil {
		return nil, err
	}
	engines.Configure(eng, engines.Options{SyncSSSP: true})
	m := simmachine.New(simmachine.Haswell72(), serveThreads)
	var inst engines.Instance
	L["engines.gap.load_s"] = tr.do("engine.load", 0, 0, func() { inst, err = eng.Load(el, m) })
	if err != nil {
		return nil, fmt.Errorf("GAP load: %w", err)
	}
	L["engines.gap.build_s"] = tr.do("engine.build_structure", 0, 0, inst.BuildStructure)
	st, ok := inst.(engines.Streamer)
	if !ok {
		return nil, fmt.Errorf("GAP instance lacks streaming support")
	}
	L["server.vectors_ms"] = 1e3 * tr.do("server.vectors", 0, 0, func() {
		if _, err = st.IncrementalPageRank(engines.DefaultPROpts()); err == nil {
			_, err = st.IncrementalWCC()
		}
	})
	if err != nil {
		return nil, err
	}
	L["server.sketch_ms"] = 1e3 * tr.do("server.build_sketch", 0, 0, func() { server.BuildSketch(csr, serveLandmarks) })

	roots := core.SelectRoots(csr, 5, cfg.seed)
	for _, k := range []struct {
		cell string
		alg  engines.Algorithm
		reps int
	}{{"gap.bfs", engines.BFS, 5}, {"gap.sssp", engines.SSSP, 5}, {"gap.pr", engines.PageRank, 2}} {
		var ms []float64
		for i := 0; i < k.reps; i++ {
			ms = append(ms, 1e3*tr.do("engines.run_algorithm", 0, tr.newReq(), func() {
				_, err = engines.RunAlgorithm(inst, k.alg, roots[i%len(roots)])
			}))
			if err != nil {
				return nil, fmt.Errorf("GAP %s: %w", k.alg, err)
			}
		}
		L["engines."+k.cell+".trial_ms"] = median(ms)
	}

	service, err := serviceTimes(cfg, tr, el)
	if err != nil {
		return nil, err
	}
	for op, ms := range service {
		L["server.service_ms."+op] = median(ms)
	}

	r := xrand.New(xrand.Mix64(cfg.seed))
	half := cfg.seconds / 2
	var phases [2]struct {
		calls []*call
		muts  []*mutCall
		acked int
	}
	for i := range phases {
		ph := &phases[i]
		ph.calls = genCalls(r, el.NumVertices, fixedQPS, half)
		if mixed {
			ph.muts = genBatches(r, el, half)
		}
		var t *tracer
		if i == 1 {
			t = tr
		}
		ph.acked = drive(s, ph.calls, ph.muts, t)
	}
	var lats [2][]float64
	var calls []*call
	var batches []graph.Batch
	var late, waitLat, waitSvc []float64
	for i, ph := range phases {
		for _, c := range ph.calls {
			c.lo += len(batches)
			c.hi += len(batches)
			res.attempted++
			late = append(late, c.late*1e3)
			if c.resp.Status != server.StatusOK {
				res.failed++
				continue
			}
			lats[i] = append(lats[i], c.lat*1e3)
			if i == 0 {
				waitLat = append(waitLat, c.lat*1e3)
				waitSvc = append(waitSvc, mean(service[string(c.q.Op)]))
			}
		}
		for _, mc := range ph.muts[:ph.acked] {
			batches = append(batches, mc.b)
		}
		for _, mc := range ph.muts {
			res.attempted++
			if mc.err != nil {
				res.failed++
				res.problem("mutate: %v", mc.err)
			}
		}
		calls = append(calls, ph.calls...)
	}

	untraced, traced := median(lats[0]), median(lats[1])
	L["trace.overhead_share"] = (traced - untraced) / untraced
	L["server.wait_share"] = 1 - mean(waitSvc)/mean(waitLat)
	L["loadgen.late_ms_p99"], _, _ = tail(late, 0.99)
	met := s.Metrics()
	L["server.shed"] = float64(met.ShedQueueFull + met.ShedThrottled)
	L["server.deadline"] = float64(met.DeadlineExceeded)
	L["server.degraded"] = float64(met.Degraded)
	L["server.max_queue_depth"] = float64(s.MaxQueueDepth())
	res.record("query_p50_ms_untraced", "ms", "median", len(lats[0]), untraced)
	res.record("query_p50_ms_traced", "ms", "median", len(lats[1]), traced)

	// The ladder runs after the counters are read: it overloads the
	// server on purpose, so its sheds are not failures, but its answers
	// are checked.
	if !mixed {
		lc := ladder(cfg, res, s, r, el.NumVertices)
		res.attempted += len(lc)
		calls = append(calls, lc...)
	}
	checkAnswers(res, el, batches, calls, cfg.nproc)

	if mixed {
		if err := replayStream(res, tr, csr, el.Directed, st, inst, phases[0].muts[:phases[0].acked]); err != nil {
			return nil, err
		}
	}
	if err := selfSpeedup(cfg, res, tr, el, serveThreads); err != nil {
		return nil, err
	}
	return res, nil
}

// serviceTimes serves distinct queries of every op unqueued through
// server.Bench and returns their service times in ms by op.
func serviceTimes(cfg config, tr *tracer, el *graph.EdgeList) (map[string][]float64, error) {
	b, err := server.NewBench(el, serveThreads, serveLandmarks, false)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	r := xrand.New(xrand.Mix64(cfg.seed ^ 0x5e7))
	out := map[string][]float64{}
	seen := map[server.Query]bool{}
	for _, c := range genCalls(r, el.NumVertices, 1, 400) {
		op := string(c.q.Op)
		if seen[c.q] || len(out[op]) >= 20 {
			continue
		}
		seen[c.q] = true
		var resp server.Response
		d := tr.do("server.bench_run", 0, tr.newReq(), func() { resp = b.Run(c.q, 0, false) })
		if resp.Status != server.StatusOK {
			return nil, fmt.Errorf("bench %s: %s", op, resp.Err)
		}
		out[op] = append(out[op], d*1e3)
	}
	return out, nil
}

// replayStream applies the acknowledged batches serially, timing each
// write-path layer per batch: MutableCSR.Apply, the Streamer's Mutate
// and incremental PR/WCC maintenance, and the sketch rebuild.
func replayStream(res *result, tr *tracer, csr *graph.CSR, directed bool, st engines.Streamer, inst engines.Instance, muts []*mutCall) error {
	if len(muts) > maxReplayBatches {
		muts = muts[:maxReplayBatches]
	}
	mc := graph.NewMutableCSR(csr, directed)
	gi, ok := inst.(interface{ OutCSR() *graph.CSR })
	if !ok {
		return fmt.Errorf("GAP instance does not expose its adjacency")
	}
	var apply, mutate, pr, wcc, sketch []float64
	for _, m := range muts {
		req := tr.newReq()
		var err error
		apply = append(apply, 1e3*tr.do("graph.mutable_csr.apply", 0, req, func() { _, err = mc.Apply(m.b) }))
		if err != nil {
			return fmt.Errorf("apply: %w", err)
		}
		mutate = append(mutate, 1e3*tr.do("engines.streamer.mutate", 0, req, func() { _, err = st.Mutate(m.b) }))
		if err != nil {
			return fmt.Errorf("mutate: %w", err)
		}
		pr = append(pr, 1e3*tr.do("engines.streamer.incremental_pagerank", 0, req, func() {
			_, err = st.IncrementalPageRank(engines.DefaultPROpts())
		}))
		if err != nil {
			return err
		}
		wcc = append(wcc, 1e3*tr.do("engines.streamer.incremental_wcc", 0, req, func() { _, err = st.IncrementalWCC() }))
		if err != nil {
			return err
		}
		sketch = append(sketch, 1e3*tr.do("server.build_sketch", 0, req, func() { server.BuildSketch(gi.OutCSR(), serveLandmarks) }))
	}
	L := res.layer
	L["graph.apply_ms"] = median(apply)
	L["engines.gap.mutate_ms"] = median(mutate)
	L["engines.gap.maintain_pr_ms"] = median(pr)
	L["engines.gap.maintain_wcc_ms"] = median(wcc)
	L["server.sketch_ms"] = median(sketch)
	res.record("replayed_batches", "count", "sum", len(muts), float64(len(muts)))
	return nil
}
