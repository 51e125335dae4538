package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/server"
	"github.com/hpcl-repro/epg/internal/verify"
	"github.com/hpcl-repro/epg/internal/xrand"
)

const (
	serveScale     = 14 // the epgd default dataset, kron-14
	serveThreads   = 8  // epgd's default modeled threads per executor
	serveLandmarks = 8  // epgd's default sketch size
	// fixedQPS is the open-loop query rate of both serving workloads:
	// below capacity on a 2-CPU host, and high enough that a 30-second
	// run holds over 2000 queries. Latency there shifts from second to
	// second with how the executors' kernels interleave, so a run needs
	// many samples for its percentiles to repeat.
	fixedQPS = 80
	// Mutation stream of serve-mixed: one batch every mutatePeriod,
	// each inserting batchInserts random edges, expiring the inserts of
	// the batch expireLag batches earlier (a sliding window) and
	// deleting batchDeletes random edges of the original graph.
	mutatePeriod = time.Second
	batchInserts = 32
	batchDeletes = 8
	expireLag    = 4
)

// call is one query of an open-loop phase.
type call struct {
	q    server.Query
	due  float64 // seconds from phase start
	late float64 // how late the generator sent it
	lat  float64 // seconds from due time to response
	resp server.Response
	// lo and hi bound the mutation epochs the answer may reflect: the
	// batches acknowledged when it was sent, and those issued when it
	// returned.
	lo, hi int
}

// mutCall is one Mutate of serve-mixed's stream.
type mutCall struct {
	b    graph.Batch
	due  float64
	late float64
	lat  float64
	err  error
}

// genCalls draws Poisson arrivals at qps over dur seconds with the op
// mix and endpoint rule of the epgd traffic model (server.Simulate,
// epgd-loadgen): 40% bfs, 20% sssp, 15% each pr and wcc, 10% 2-hop,
// source and target uniform over the n vertices. The served graphs are
// weighted, so sssp is never folded into bfs.
func genCalls(r *xrand.RNG, n int, qps, dur float64) []*call {
	var out []*call
	for t := r.Exp() / qps; t < dur; t += r.Exp() / qps {
		q := server.Query{Source: graph.VID(r.Intn(n)), Target: graph.VID(r.Intn(n))}
		switch x := r.Float64(); {
		case x < 0.40:
			q.Op = server.OpBFS
		case x < 0.60:
			q.Op = server.OpSSSP
		case x < 0.75:
			q.Op = server.OpPR
		case x < 0.90:
			q.Op = server.OpWCC
		default:
			q.Op, q.K = server.OpKHop, 2
		}
		out = append(out, &call{q: q, due: t})
	}
	return out
}

// genBatches draws the mutation stream for dur seconds.
func genBatches(r *xrand.RNG, el *graph.EdgeList, dur float64) []*mutCall {
	n := el.NumVertices
	var out []*mutCall
	var inserted [][]graph.Mutation
	for t := 0.0; t < dur; t += mutatePeriod.Seconds() {
		var b graph.Batch
		var ins []graph.Mutation
		for i := 0; i < batchInserts; i++ {
			m := graph.Mutation{Op: graph.MutInsert, Src: graph.VID(r.Intn(n)), Dst: graph.VID(r.Intn(n)),
				W: float32(1 - r.Float64())}
			ins = append(ins, m)
			b = append(b, m)
		}
		if k := len(inserted) - expireLag; k >= 0 {
			for _, m := range inserted[k] {
				b = append(b, graph.Mutation{Op: graph.MutDelete, Src: m.Src, Dst: m.Dst})
			}
		}
		for i := 0; i < batchDeletes; i++ {
			e := el.Edges[r.Intn(len(el.Edges))]
			b = append(b, graph.Mutation{Op: graph.MutDelete, Src: e.Src, Dst: e.Dst})
		}
		inserted = append(inserted, ins)
		out = append(out, &mutCall{b: b, due: t + mutatePeriod.Seconds()/2})
	}
	return out
}

// drive runs one open-loop phase: every query is sent at its due time
// whether or not earlier ones have returned. The mutation batches form
// one ordered stream, since later batches expire edges earlier ones
// inserted: each is sent at its due time or, if the previous batch is
// still unacknowledged, as soon as it is, and its latency still runs
// from its due time. drive returns how many batches were acknowledged.
func drive(s *server.Server, calls []*call, muts []*mutCall, tr *tracer) int {
	ctx := context.Background()
	var wg sync.WaitGroup
	var acked, issued atomic.Int64
	start := time.Now()
	wait := func(due float64) float64 {
		if d := time.Until(start.Add(time.Duration(due * 1e9))); d > 0 {
			time.Sleep(d)
		}
		return since(start) - due
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, m := range muts {
			if i > 0 && muts[i-1].err != nil {
				m.err = fmt.Errorf("batch %d not sent: an earlier batch failed", i)
				continue
			}
			m.late = wait(m.due)
			issued.Add(1)
			var id int
			if tr != nil {
				id = tr.begin("server.mutate", 0, tr.newReq())
			}
			_, m.err = s.Mutate(ctx, m.b)
			m.lat = since(start) - m.due
			if tr != nil {
				tr.end(id)
			}
			if m.err == nil {
				acked.Add(1)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for _, c := range calls {
			c.late = wait(c.due)
			wg.Add(1)
			go func(c *call) {
				defer wg.Done()
				c.lo = int(acked.Load())
				var id int
				if tr != nil {
					id = tr.begin("server.submit", 0, tr.newReq())
				}
				c.resp = s.Submit(ctx, c.q)
				c.lat = since(start) - c.due
				if tr != nil {
					tr.end(id)
				}
				c.hi = int(issued.Load())
			}(c)
		}
	}()
	wg.Wait()
	return int(acked.Load())
}

// setupServer generates the graph and starts a server from a
// collected heap. It returns the set-up and the construction time in
// seconds.
func setupServer(cfg config) (*graph.EdgeList, *server.Server, float64, float64, error) {
	runtime.GC()
	t := time.Now()
	el, _ := generateOnce(serveScale, cfg.seed)
	tn := time.Now()
	s, err := server.NewFromEdgeList(el, serverConfig(cfg))
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("server: %w", err)
	}
	return el, s, since(t), since(tn), nil
}

// setupTimes repeats the set-up n times, closing each server, and
// appends the set-up and construction times.
func setupTimes(cfg config, n int, setups, news []float64) ([]float64, []float64, error) {
	for i := 0; i < n; i++ {
		_, s, setup, newS, err := setupServer(cfg)
		if err != nil {
			return nil, nil, err
		}
		s.Close()
		setups, news = append(setups, setup), append(news, newS)
	}
	return setups, news, nil
}

func serverConfig(cfg config) server.Config {
	return server.Config{Executors: cfg.nproc, Threads: serveThreads, Landmarks: serveLandmarks}
}

func runServe(cfg config) (*result, error) {
	res := newResult()
	// Half the set-up repetitions run before the load and half after,
	// so a burst of host contention cannot skew them all.
	setups, news, err := setupTimes(cfg, setupReps/2-1, nil, nil)
	if err != nil {
		return nil, err
	}
	el, s, setup, newS, err := setupServer(cfg)
	if err != nil {
		return nil, err
	}
	setups, news = append(setups, setup), append(news, newS)
	if cfg.trace {
		defer s.Close()
		return traceServe(cfg, res, el, s)
	}
	mixed := cfg.workload == "serve-mixed"
	r := xrand.New(xrand.Mix64(cfg.seed))
	calls := genCalls(r, el.NumVertices, fixedQPS, cfg.seconds)
	var muts []*mutCall
	if mixed {
		muts = genBatches(r, el, cfg.seconds)
	}
	runtime.GC() // start the timed phase without set-up's garbage
	cpu0, steal := cpuSeconds(), startSteal()
	acked := drive(s, calls, muts, nil)
	cpu := cpuSeconds() - cpu0
	res.record("host_steal_share", "share", "ratio", 1, steal.share())
	s.Close()

	if setups, news, err = setupTimes(cfg, setupReps/2, setups, news); err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = median(setups)
	res.record("setup_s", "s", "median", len(setups), median(setups))

	lat, mlat := summarize(res, calls, muts)
	ops := len(calls) + len(muts)
	res.e2e["cpu_ms_per_op"] = cpu * 1e3 / float64(ops)
	res.record("cpu_ms_per_op", "ms", "mean", ops, res.e2e["cpu_ms_per_op"])
	res.e2e["latency_ms"] = opLatency(calls)
	res.record("latency_ms", "ms", "geomean of per-op medians", len(lat), res.e2e["latency_ms"])
	res.record("query_p50_ms", "ms", "median", len(lat), median(lat))
	res.recordTail("query_p90_ms", "ms", lat, 0.90)
	res.recordTail("query_p99_ms", "ms", lat, 0.99)
	if mixed {
		res.e2e["write_ms"] = median(mlat)
		res.record("mutate_p50_ms", "ms", "median", len(mlat), median(mlat))
		res.recordTail("mutate_p90_ms", "ms", mlat, 0.90)
	} else {
		res.e2e["write_ms"] = median(news) * 1e3
		res.record("server_new_ms", "ms", "median", len(news), median(news)*1e3)
	}
	batches := make([]graph.Batch, acked)
	for i := range batches {
		batches[i] = muts[i].b
	}
	// Peak memory of set-up and load, before the check's references.
	res.e2e["peak_rss_mb"] = peakRSSMB()
	res.record("peak_rss_mb", "MB", "max", 1, res.e2e["peak_rss_mb"])
	wrongBefore := res.failed
	checkAnswers(res, el, batches, calls, cfg.nproc)
	res.record("wrong_answers", "count", "sum", len(calls), float64(res.failed-wrongBefore))
	ok := float64(res.attempted-res.failed) / float64(res.attempted)
	res.e2e["ok_frac"] = ok
	res.record("fail_frac", "share", "ratio", res.attempted, 1-ok)
	return res, nil
}

// opLatency returns the geometric mean over op kinds of the median
// latency in ms of the successful queries. Each op weighs the same, so
// the figure does not jump when the overall median falls between two
// op kinds, and every op's latency counts.
func opLatency(calls []*call) float64 {
	byOp := map[server.Op][]float64{}
	for _, c := range calls {
		if c.resp.Status == server.StatusOK {
			byOp[c.q.Op] = append(byOp[c.q.Op], c.lat*1e3)
		}
	}
	var p50s []float64
	for _, ms := range byOp {
		p50s = append(p50s, median(ms))
	}
	return geomean(p50s)
}

// summarize counts the fixed phase's operations and failures and
// returns the latencies in ms of the successful operations: queries
// and acknowledged batches. Failed operations count only in ok_frac,
// so failing faster cannot look like a gain.
func summarize(res *result, calls []*call, muts []*mutCall) (lat, mlat []float64) {
	var late []float64
	byOp := map[server.Op][]float64{}
	degraded := 0
	for _, c := range calls {
		res.attempted++
		late = append(late, c.late*1e3)
		if c.resp.Status != server.StatusOK {
			res.failed++
			continue
		}
		lat = append(lat, c.lat*1e3)
		byOp[c.q.Op] = append(byOp[c.q.Op], c.lat*1e3)
		if c.resp.Degraded {
			degraded++
		}
	}
	for _, m := range muts {
		res.attempted++
		if m.err != nil {
			res.failed++
			res.problem("mutate: %v", m.err)
			continue
		}
		mlat = append(mlat, m.lat*1e3)
	}
	for op, ms := range byOp {
		res.record("query_p50_ms."+string(op), "ms", "median", len(ms), median(ms))
		res.recordTail("query_p90_ms."+string(op), "ms", ms, 0.90)
	}
	res.recordTail("loadgen_late_ms_p99", "ms", late, 0.99)
	res.record("degraded_frac", "share", "ratio", len(calls), float64(degraded)/float64(len(calls)))
	return lat, mlat
}

// ladder offers each rate of cfg.ladder for an equal share of a
// quarter of the run's budget and records slo_qps: the highest rate
// whose tail latency meets cfg.sloMS with nothing shed. Each rung is
// judged on its p99, or, when the rung is too short for ten samples
// beyond the p99, on the highest percentile that has them. A growing
// backlog shows as a growing tail, since latency runs from due time.
func ladder(cfg config, res *result, s *server.Server, r *xrand.RNG, n int) []*call {
	dur := cfg.seconds / 4 / float64(len(cfg.ladder))
	slo := 0.0
	var out []*call
	for _, qps := range cfg.ladder {
		calls := genCalls(r, n, qps, dur)
		drive(s, calls, nil, nil)
		var lat []float64
		shed := 0
		for _, c := range calls {
			lat = append(lat, c.lat*1e3)
			if c.resp.Status != server.StatusOK {
				shed++
			}
		}
		name := fmt.Sprintf("ladder_tail_ms.%g", qps)
		res.recordTail(name, "ms", lat, 0.99)
		if res.rec[name].Value <= cfg.sloMS && shed == 0 {
			slo = qps
		}
		out = append(out, calls...)
	}
	res.record("slo_qps", "1/s", "ladder", len(cfg.ladder), slo)
	return out
}

// checkAnswers verifies every OK answer offline against the package
// verify references on each mutation epoch the query could have
// observed. Degraded answers must be upper bounds. batches are the
// acknowledged batches in order; epoch e is the graph after the first
// e of them. A wrong answer counts as a failed operation and per op.
func checkAnswers(res *result, el *graph.EdgeList, batches []graph.Batch, calls []*call, workers int) {
	open := map[*call]bool{}
	for _, c := range calls {
		if c.resp.Status == server.StatusOK {
			c.hi = min(c.hi, len(batches))
			c.lo = min(c.lo, c.hi)
			open[c] = true
		}
	}
	csr := graph.BuildCSR(el, graph.BuildOptions{Symmetrize: !el.Directed, DropSelfLoops: true, Dedup: true, Sort: true})
	mut := graph.NewMutableCSR(csr, el.Directed)
	for e := 0; e <= len(batches) && len(open) > 0; e++ {
		if e > 0 {
			if _, err := mut.Apply(batches[e-1]); err != nil {
				res.problem("reference replay of batch %d: %v", e, err)
				return
			}
		}
		var todo []*call
		for c := range open {
			if c.lo <= e && e <= c.hi {
				todo = append(todo, c)
			}
		}
		ep := newEpochRefs(mut.CSR())
		matched := make([]bool, len(todo))
		parallelFor(len(todo), workers, func(i int) { matched[i] = ep.matches(todo[i]) })
		for i, c := range todo {
			if matched[i] {
				delete(open, c)
			} else if c.hi == e {
				delete(open, c)
				res.wrong[string(c.q.Op)]++
				res.failed++
				res.problem("wrong %s answer %v for %d->%d (epochs %d..%d)", c.q.Op, c.resp.Value, c.q.Source, c.q.Target, c.lo, c.hi)
			}
		}
	}
}

// parallelFor runs f(0..n-1) on up to workers goroutines.
func parallelFor(n, workers int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// epochRefs computes reference answers on one epoch's graph, each
// whole-graph reference once.
type epochRefs struct {
	p       *verify.Prepared
	once    sync.Once
	pr      []float64
	wcc     []graph.VID
	wccOnce sync.Once
}

func newEpochRefs(c *graph.CSR) *epochRefs {
	return &epochRefs{p: &verify.Prepared{Out: c, In: c}}
}

// ssspTol is the distance tolerance of verify.ValidateSSSP.
func ssspTol(d float64) float64 { return verify.SSSPTolerance * (1 + math.Abs(d)) }

func (ep *epochRefs) matches(c *call) bool {
	v := c.resp.Value
	switch c.q.Op {
	case server.OpBFS, server.OpKHop:
		depth := verify.BFS(ep.p, c.q.Source).Depth
		if c.q.Op == server.OpKHop {
			n := 0
			for _, d := range depth {
				if d >= 0 && d <= int64(c.q.K) {
					n++
				}
			}
			return v == float64(n)
		}
		want := float64(depth[c.q.Target])
		if c.resp.Degraded {
			return want < 0 && v < 0 || want >= 0 && v >= want
		}
		return v == want
	case server.OpSSSP:
		want := verify.SSSP(ep.p, c.q.Source).Dist[c.q.Target]
		if math.IsInf(want, 1) {
			return v == -1
		}
		if c.resp.Degraded {
			return v >= want-ssspTol(want)
		}
		return v >= 0 && math.Abs(v-want) <= ssspTol(want)
	case server.OpPR:
		ep.once.Do(func() { ep.pr = verify.PageRank(ep.p, engines.PROpts{}).Rank })
		return math.Abs(v-ep.pr[c.q.Source]) <= 1e-6
	case server.OpWCC:
		ep.wccOnce.Do(func() { ep.wcc = verify.WCC(ep.p).Component })
		same := 0.0
		if ep.wcc[c.q.Source] == ep.wcc[c.q.Target] {
			same = 1
		}
		return v == same
	}
	return false
}
