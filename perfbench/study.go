package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/all"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/power"
	"github.com/hpcl-repro/epg/internal/simmachine"
	"github.com/hpcl-repro/epg/internal/verify"
)

const (
	studyScale   = 16
	studyThreads = 32 // the paper's headline thread count
	// studyMinReps keeps at least 100 kernel trials in a run, so the
	// p90 trial wall has ten samples beyond it.
	studyMinReps = 3
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median.
	setupReps = 8
)

// studySpec is one harness.Runner.Run call of the study's spec set.
// Root counts balance the set: cheap traversals get more roots, the
// root-independent PageRank one trial, so no engine x kernel cell
// dominates the wall time.
type studySpec struct {
	alg      engines.Algorithm
	roots    int
	compress bool
	engines  []string // nil: every engine implementing alg
}

var studySpecs = []studySpec{
	{engines.BFS, 8, false, nil},
	{engines.SSSP, 3, false, nil},
	{engines.PageRank, 1, false, nil},
	{engines.BFS, 8, true, []string{"Graph500", "GAP"}},
	{engines.PageRank, 1, true, []string{"GAP"}},
}

func (s studySpec) coreSpec(seed uint64, workers int) core.Spec {
	return core.Spec{
		Dataset:      fmt.Sprintf("kron-%d", studyScale),
		Algorithm:    s.alg,
		Engines:      s.engineNames(),
		Threads:      studyThreads,
		Workers:      workers,
		Roots:        s.roots,
		Seed:         seed,
		MeasurePower: s.alg == engines.BFS,  // Table III meters BFS
		SyncSSSP:     s.alg == engines.SSSP, // every modeled column schedule-independent
		Compress:     s.compress,
	}
}

func (s studySpec) engineNames() []string {
	if s.engines != nil {
		return s.engines
	}
	var out []string
	for _, name := range engineOrder {
		if eng, err := all.New(name); err == nil && eng.Has(s.alg) {
			out = append(out, name)
		}
	}
	return out
}

func cellName(engine string, s studySpec) string {
	c := engineKeys[engine] + "." + strings.ToLower(string(s.alg))
	if s.compress {
		c += ".z"
	}
	return c
}

// studyCells lists the engine x kernel (x layout) cells of the study.
func studyCells() []string {
	var out []string
	for _, s := range studySpecs {
		for _, e := range s.engineNames() {
			out = append(out, cellName(e, s))
		}
	}
	return out
}

// generate builds the workload graph setupReps times and returns it
// with the median generation time.
func generate(scale int, seed uint64) (*graph.EdgeList, float64) {
	var el *graph.EdgeList
	var ts []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		var t float64
		el, t = generateOnce(scale, seed)
		ts = append(ts, t)
	}
	return el, median(ts)
}

func generateOnce(scale int, seed uint64) (*graph.EdgeList, float64) {
	t := time.Now()
	el := kronecker.Generate(kronecker.Params{Scale: scale, Seed: seed})
	return el, since(t)
}

func runStudy(cfg config) (*result, error) {
	res := newResult()
	el, setup := generate(studyScale, cfg.seed)
	res.e2e["setup_s"] = setup
	res.record("setup_s", "s", "median", setupReps, setup)
	runner := harness.NewRunner(all.Registry())
	runner.Warnings = os.Stderr
	if cfg.trace {
		return traceStudy(cfg, res, runner, el)
	}

	var trialMS, writeMS, repRSS []float64
	canon := make([][]string, len(studySpecs))
	// Per spec, the wall and CPU seconds of each repetition.
	specWall := make([][]float64, len(studySpecs))
	specCPU := make([][]float64, len(studySpecs))
	// Whole repetitions run while the next one is projected to end
	// within the budget. Each spec starts from a collected heap.
	// study_s sums each spec's median wall over the repetitions, so a
	// spell of host contention during one spec moves it little;
	// peak_rss_mb is the median of the repetitions' peaks, since one
	// peak depends on when the collector happened to run.
	rss := startRSS()
	defer rss.stop()
	start, steal := time.Now(), startSteal()
	for rep := 0; rep < studyMinReps || since(start)*float64(rep+1)/float64(rep) <= cfg.seconds; rep++ {
		rss.take()
		for i, sp := range studySpecs {
			names := sp.engineNames()
			want := len(names) * sp.roots
			res.attempted += want
			runtime.GC()
			cpu0 := cpuSeconds()
			t := time.Now()
			rs, err := runner.Run(sp.coreSpec(cfg.seed, cfg.nproc), el)
			wall := since(t)
			specCPU[i] = append(specCPU[i], cpuSeconds()-cpu0)
			specWall[i] = append(specWall[i], wall)
			if err != nil || len(rs) != want {
				res.failed += want
				res.problem("study %s: %d results, err %v", sp.alg, len(rs), err)
				continue
			}
			// Every modeled column must repeat bit for bit; only the
			// wall column may differ between repetitions.
			var kernel float64
			keys := make([]string, len(rs))
			for j, r := range rs {
				trialMS = append(trialMS, r.WallSec*1e3)
				kernel += r.WallSec
				r.WallSec = 0
				keys[j] = fmt.Sprintf("%+v", r)
			}
			writeMS = append(writeMS, (wall-kernel)/float64(len(names))*1e3)
			if rep == 0 {
				canon[i] = keys
				continue
			}
			for j := range keys {
				if keys[j] != canon[i][j] {
					res.failed++
					res.problem("study rep %d: modeled columns differ from rep 0: %s vs %s", rep, keys[j], canon[i][j])
				}
			}
		}
		repRSS = append(repRSS, rss.take())
	}
	res.record("host_steal_share", "share", "ratio", 1, steal.share())

	var studyS, cpuS float64
	trials := 0
	for i, sp := range studySpecs {
		studyS += median(specWall[i])
		cpuS += median(specCPU[i])
		trials += len(sp.engineNames()) * sp.roots
	}
	ok := float64(res.attempted-res.failed) / float64(res.attempted)
	res.e2e["cpu_ms_per_op"] = cpuS * 1e3 / float64(trials)
	res.e2e["latency_ms"] = studyS * 1e3
	res.e2e["write_ms"] = median(writeMS)
	res.e2e["ok_frac"] = ok
	res.e2e["peak_rss_mb"] = median(repRSS)
	res.record("peak_rss_mb", "MB", "median", len(repRSS), median(repRSS))
	res.record("study_s", "s", "sum of per-spec medians", len(specWall[0]), studyS)
	res.record("trial_p50_ms", "ms", "median", len(trialMS), median(trialMS))
	res.recordTail("trial_p90_ms", "ms", trialMS, 0.90)
	res.record("construct_ms", "ms", "median", len(writeMS), median(writeMS))
	res.record("cpu_ms_per_op", "ms", "per-spec medians over trials", res.attempted, res.e2e["cpu_ms_per_op"])
	res.record("fail_frac", "share", "ratio", res.attempted, 1-ok)
	return res, nil
}

// prTolerance is the per-engine L1 tolerance of ValidatePageRank:
// float32 engines accumulate more rounding.
var prTolerance = map[string]float64{"GAP": 1e-6, "PowerGraph": 1e-6, "GraphBIG": 5e-3, "GraphMat": 5e-3}

// traceStudy times one untraced pass of the spec set, then replays the
// harness's calls for the same specs from this file, with a span
// around each call into a layer, and validates every kernel output.
func traceStudy(cfg config, res *result, runner *harness.Runner, el *graph.EdgeList) (*result, error) {
	tr := newTracer()
	res.spans = tr
	L := res.layer

	t := time.Now()
	for _, sp := range studySpecs {
		if _, err := runner.Run(sp.coreSpec(cfg.seed, cfg.nproc), el); err != nil {
			return nil, fmt.Errorf("study %s: %w", sp.alg, err)
		}
	}
	untraced := since(t)

	L["kronecker.generate_s"] = tr.do("kronecker.generate", 0, 0, func() {
		kronecker.Generate(kronecker.Params{Scale: studyScale, Seed: cfg.seed})
	})
	homog := graph.BuildOptions{Symmetrize: !el.Directed, DropSelfLoops: true, Dedup: true, Sort: true}
	var csr *graph.CSR
	L["graph.build_csr_s"] = tr.do("graph.build_csr", 0, 0, func() { csr = graph.BuildCSR(el, homog) })
	raw := graph.BuildCSR(el, graph.BuildOptions{Symmetrize: !el.Directed, DropSelfLoops: true})
	L["graph.sort_s"] = tr.do("graph.sort_adjacency", 0, 0, raw.SortAdjacency)
	var z *graph.CompressedCSR
	L["graph.compress_s"] = tr.do("graph.compress", 0, 0, func() { z = graph.CompressCSR(csr, cfg.nproc) })
	L["graph.compressed_bytes_per_edge"] = float64(z.TotalBytes()) / float64(csr.NumEdges())

	p := verify.Prepare(el)
	bfsRef := map[graph.VID]*engines.BFSResult{}
	ssspRef := map[graph.VID]*engines.SSSPResult{}
	prRef := verify.PageRank(p, engines.PROpts{})

	type cellStats struct {
		wallMS, regions []float64
		cpu, wall       float64
	}
	cells := map[string]*cellStats{}
	loads, builds := map[string][]float64{}, map[string][]float64{}
	var selects, meters []float64
	var children, checking float64
	replay := time.Now()
	for _, sp := range studySpecs {
		var rootCSR *graph.CSR
		var roots []graph.VID
		sel := tr.begin("harness.select_roots", 0, 0)
		tr.do("graph.build_csr", sel, 0, func() {
			rootCSR = graph.BuildCSR(el, graph.BuildOptions{Symmetrize: !el.Directed, DropSelfLoops: true, Dedup: true})
		})
		tr.do("core.select_roots", sel, 0, func() { roots = core.SelectRoots(rootCSR, sp.roots, cfg.seed) })
		d := tr.end(sel)
		selects = append(selects, d)
		children += d
		for _, name := range sp.engineNames() {
			cell := cellName(name, sp)
			cs := cells[cell]
			if cs == nil {
				cs = &cellStats{}
				cells[cell] = cs
			}
			eng, err := all.New(name)
			if err != nil {
				return nil, err
			}
			engines.Configure(eng, engines.Options{SyncSSSP: true, Compress: sp.compress})
			m := simmachine.New(simmachine.Haswell72(), studyThreads)
			m.SetWorkers(cfg.nproc)
			// One span per engine, as harness.runEngine, with the
			// calls it makes as children. Outputs are validated after
			// the span closes.
			run := tr.begin("harness.run_engine", 0, tr.newReq())
			var inst engines.Instance
			d := tr.do("engine.load", run, 0, func() { inst, err = eng.Load(el, m) })
			if err != nil {
				return nil, fmt.Errorf("%s load: %w", name, err)
			}
			loads[name] = append(loads[name], d)
			children += d
			if eng.SeparateConstruction() {
				d = tr.do("engine.build_structure", run, 0, inst.BuildStructure)
				builds[name] = append(builds[name], d)
				children += d
			}
			outs := make([]any, sp.roots)
			errs := make([]error, sp.roots)
			for trial := range outs {
				req := tr.newReq()
				trialSpan := tr.begin("harness.trial", run, req)
				var meter *power.RAPL
				var meterS float64
				if sp.alg == engines.BFS {
					meterS += tr.do("power.rapl_start", trialSpan, req, func() {
						meter = power.NewRAPL(m, power.DefaultConstants())
						meter.Start()
					})
				}
				i0, _ := m.Mark()
				c0 := cpuSeconds()
				k := tr.do("engines.run_algorithm", trialSpan, req, func() {
					outs[trial], errs[trial] = engines.RunAlgorithm(inst, sp.alg, roots[trial%len(roots)])
				})
				cpu := cpuSeconds() - c0
				i1, _ := m.Mark()
				if meter != nil {
					meterS += tr.do("power.rapl_end", trialSpan, req, func() { meter.End() })
					meters = append(meters, meterS*1e3)
				}
				tr.end(trialSpan)
				children += k + meterS
				cs.wallMS = append(cs.wallMS, k*1e3)
				cs.regions = append(cs.regions, float64(i1-i0))
				cs.cpu += cpu
				cs.wall += k
			}
			tr.end(run)
			c := time.Now()
			for trial, out := range outs {
				res.attempted++
				err := errs[trial]
				if err == nil {
					err = checkKernel(p, name, sp.alg, roots[trial%len(roots)], out, bfsRef, ssspRef, prRef)
				}
				if err != nil {
					res.failed++
					res.wrong[strings.ToLower(string(sp.alg))]++
					res.problem("%s: %v", cell, err)
				}
			}
			checking += since(c)
		}
	}
	traced := since(replay) - checking

	for name, k := range engineKeys {
		L["engines."+k+".load_s"] = median(loads[name])
		L["engines."+k+".build_s"] = median(builds[name])
	}
	gmp := float64(cfg.nproc)
	for cell, cs := range cells {
		L["engines."+cell+".trial_ms"] = median(cs.wallMS)
		L["simmachine.regions."+cell] = median(cs.regions)
		L["parallel.cpu_util."+cell] = cs.cpu / (cs.wall * gmp)
	}
	L["harness.select_roots_s"] = median(selects)
	L["harness.self_s"] = untraced - children
	L["power.meter_ms"] = median(meters)
	L["trace.overhead_share"] = (traced - untraced) / untraced
	res.record("study_s_untraced", "s", "single", 1, untraced)
	res.record("study_s_traced", "s", "single", 1, traced)

	if err := selfSpeedup(cfg, res, tr, el, studyThreads); err != nil {
		return nil, err
	}
	return res, nil
}

// checkKernel validates one kernel output against the serial
// references of package verify, computing each reference once.
func checkKernel(p *verify.Prepared, engine string, alg engines.Algorithm, root graph.VID, out any,
	bfsRef map[graph.VID]*engines.BFSResult, ssspRef map[graph.VID]*engines.SSSPResult, prRef *engines.PRResult) error {
	switch got := out.(type) {
	case *engines.BFSResult:
		if bfsRef[root] == nil {
			bfsRef[root] = verify.BFS(p, root)
		}
		return verify.ValidateBFS(p, got, bfsRef[root])
	case *engines.SSSPResult:
		if ssspRef[root] == nil {
			ssspRef[root] = verify.SSSP(p, root)
		}
		return verify.ValidateSSSP(p, got, ssspRef[root])
	case *engines.PRResult:
		return verify.ValidatePageRank(got, prRef, prTolerance[engine])
	}
	return fmt.Errorf("%s: unexpected %s output %T", engine, alg, out)
}

// selfSpeedup times GAP BFS and PageRank on the workload graph at one
// worker and at nproc workers, recording both walls beside the ratio.
func selfSpeedup(cfg config, res *result, tr *tracer, el *graph.EdgeList, threads int) error {
	eng, err := all.New("GAP")
	if err != nil {
		return err
	}
	m := simmachine.New(simmachine.Haswell72(), threads)
	inst, err := eng.Load(el, m)
	if err != nil {
		return fmt.Errorf("GAP load: %w", err)
	}
	inst.BuildStructure()
	roots := core.SelectRoots(graph.BuildCSR(el, graph.BuildOptions{
		Symmetrize: !el.Directed, DropSelfLoops: true, Dedup: true}), 5, cfg.seed)
	for _, k := range []struct {
		key  string
		alg  engines.Algorithm
		reps int
	}{{"bfs", engines.BFS, 5}, {"pr", engines.PageRank, 3}} {
		walls := map[int]float64{}
		for _, w := range []int{1, cfg.nproc} {
			m.SetWorkers(w)
			var ms []float64
			for i := 0; i < k.reps; i++ {
				ms = append(ms, 1e3*tr.do(fmt.Sprintf("parallel.%s.workers%d", k.key, w), 0, tr.newReq(), func() {
					_, err = engines.RunAlgorithm(inst, k.alg, roots[i%len(roots)])
				}))
				if err != nil {
					return fmt.Errorf("GAP %s: %w", k.alg, err)
				}
			}
			walls[w] = median(ms)
		}
		res.layer["parallel.wall_1w_ms.gap."+k.key] = walls[1]
		res.layer["parallel.wall_nw_ms.gap."+k.key] = walls[cfg.nproc]
		res.layer["parallel.self_speedup.gap."+k.key] = walls[1] / walls[cfg.nproc]
	}
	m.SetWorkers(cfg.nproc)
	return nil
}
