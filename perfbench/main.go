// Command perfbench is the repository benchmark. One invocation runs
// one workload for a fixed wall-clock budget, checks every output it
// can, and prints one JSON line as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set scored in
// BENCHMARK.json; with --trace 1 they are the per-layer set. The line
// before it is a provenance record (host stamp, seed, every metric by
// its full name with unit, statistic and sample count) that
// compare.py reads.
//
// Workloads:
//
//	study       the paper's BFS/SSSP/PR study through harness.Runner.Run
//	serve-read  epgd core in-process, open-loop reads, no mutations
//	serve-mixed epgd core in-process, open-loop reads beside open-loop
//	            mutation batches
//
// The clock is host wall time. Modeled seconds and joules are checked
// outputs, never scored metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload    string
	seed        uint64
	heldOutSeed uint64
	seconds     float64
	trace       bool
	commit      string
	sloMS       float64
	ladder      []float64
	nproc       int
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(cfg.nproc)
	var res *result
	switch cfg.workload {
	case "study":
		res, err = runStudy(cfg)
	case "serve-read", "serve-mixed":
		res, err = runServe(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want study, serve-read or serve-mixed)", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.record("vmhwm_mb", "MB", "max", 1, peakRSSMB())
	if err := res.print(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "study, serve-read or serve-mixed")
	seed := fs.Uint64("seed", 1, "workload seed: drives every generated input")
	heldOut := fs.Uint64("held-out-seed", 0, "seed reserved for confirming later claims (recorded in the stamp)")
	seconds := fs.Float64("seconds", 30, "measured wall-clock budget per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end measurement")
	commit := fs.String("commit", "unknown", "source commit recorded in the stamp")
	slo := fs.Float64("slo-ms", 150, "query p99 latency limit for slo_qps")
	ladder := fs.String("ladder", "120,160,200,240", "offered rates (q/s) of the serve-read SLO ladder")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return config{}, fmt.Errorf("--seconds must be positive")
	}
	var rates []float64
	for _, f := range strings.Split(*ladder, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return config{}, fmt.Errorf("bad --ladder rate %q", f)
		}
		rates = append(rates, v)
	}
	sort.Float64s(rates)
	return config{
		workload:    *workload,
		seed:        *seed,
		heldOutSeed: *heldOut,
		seconds:     *seconds,
		trace:       *trace == 1,
		commit:      *commit,
		sloMS:       *slo,
		ladder:      rates,
		nproc:       runtime.NumCPU(),
	}, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// recorded is one metric of the provenance record, with the statistic
// it is and the number of samples behind it.
type recorded struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Stat    string  `json:"stat"`
	Samples int     `json:"samples"`
	// Beyond is, for a tail percentile, the samples beyond it.
	Beyond int `json:"beyond,omitempty"`
}

// result is what one workload run produces.
type result struct {
	attempted, failed int
	// problems lists failed checks; any entry makes correct false.
	problems []string
	// wrong counts wrong answers per op kind (the verify layer).
	wrong map[string]int
	// e2e holds the scored end-to-end metrics, layer the per-layer
	// metrics of a traced run.
	e2e, layer map[string]float64
	// rec holds every measured metric under its full name.
	rec map[string]recorded
	// spans is the traced run's span log.
	spans *tracer
}

func newResult() *result {
	return &result{
		wrong: map[string]int{},
		e2e:   map[string]float64{},
		layer: map[string]float64{},
		rec:   map[string]recorded{},
	}
}

func (r *result) record(name, unit, stat string, samples int, v float64) {
	r.rec[name] = recorded{Value: v, Unit: unit, Stat: stat, Samples: samples}
}

// recordTail records the highest percentile at or below q of xs that
// has minBeyond samples beyond it.
func (r *result) recordTail(name, unit string, xs []float64, q float64) {
	v, stat, beyond := tail(xs, q)
	r.rec[name] = recorded{Value: v, Unit: unit, Stat: stat, Samples: len(xs), Beyond: beyond}
}

func (r *result) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	if len(r.problems) < 20 {
		r.problems = append(r.problems, msg)
	}
}

func (r *result) print(w *os.File, cfg config) error {
	for op, n := range r.wrong {
		r.layer["verify.wrong."+op] = float64(n)
	}
	out := map[string]metric{}
	want, src := endToEnd, r.e2e
	if cfg.trace {
		want, src = perLayer(), r.layer
	}
	for _, d := range want {
		v, ok := src[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if cfg.trace && r.spans != nil {
		path, err := r.spans.write(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	stamp := map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"held_out_seed": cfg.heldOutSeed,
		"trace":         cfg.trace,
		"seconds":       cfg.seconds,
		"nproc":         cfg.nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"cpu_model":     cpuModel(),
		"commit":        cfg.commit,
		"slo_ms":        cfg.sloMS,
		"ladder_qps":    cfg.ladder,
	}
	scored := "end_to_end"
	if cfg.trace {
		scored = "per_layer"
	}
	rec := map[string]any{
		"stamp":     stamp,
		scored:      out,
		"metrics":   r.rec,
		"wrong":     r.wrong,
		"problems":  r.problems,
		"attempted": r.attempted,
		"failed":    r.failed,
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		return err
	}
	return enc.Encode(map[string]any{
		"correct":   len(r.problems) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// since reports seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
