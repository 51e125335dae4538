package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// def names a reported metric and its unit.
type def struct{ name, unit string }

// endToEnd is the scored set. Every workload reports every one of them;
// where a workload has no operation of the named kind the definition
// maps to its nearest counterpart, as README.md tabulates.
var endToEnd = []def{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
	{"latency_ms", "ms"},
	{"write_ms", "ms"},
	{"ok_frac", "share"},
}

// Engine and kernel names as they appear in per-layer metric names.
var (
	engineKeys = map[string]string{
		"Graph500": "graph500", "GAP": "gap", "GraphBIG": "graphbig",
		"GraphMat": "graphmat", "PowerGraph": "powergraph",
	}
	engineOrder = []string{"Graph500", "GAP", "GraphBIG", "GraphMat", "PowerGraph"}
	serveOps    = []string{"bfs", "sssp", "pr", "wcc", "khop"}
)

// perLayer lists every per-layer metric of a traced run. Workloads
// that bypass a layer report 0 for it.
func perLayer() []def {
	ds := []def{
		{"kronecker.generate_s", "s"},
		{"graph.build_csr_s", "s"},
		{"graph.sort_s", "s"},
		{"graph.compress_s", "s"},
		{"graph.compressed_bytes_per_edge", "B/edge"},
		{"graph.apply_ms", "ms"},
	}
	for _, e := range engineOrder {
		k := engineKeys[e]
		ds = append(ds, def{"engines." + k + ".load_s", "s"}, def{"engines." + k + ".build_s", "s"})
	}
	for _, c := range studyCells() {
		ds = append(ds, def{"engines." + c + ".trial_ms", "ms"})
	}
	ds = append(ds,
		def{"engines.gap.mutate_ms", "ms"},
		def{"engines.gap.maintain_pr_ms", "ms"},
		def{"engines.gap.maintain_wcc_ms", "ms"},
	)
	for _, c := range studyCells() {
		ds = append(ds, def{"simmachine.regions." + c, "count"})
	}
	for _, c := range studyCells() {
		ds = append(ds, def{"parallel.cpu_util." + c, "share"})
	}
	for _, k := range []string{"bfs", "pr"} {
		ds = append(ds,
			def{"parallel.self_speedup.gap." + k, "x"},
			def{"parallel.wall_1w_ms.gap." + k, "ms"},
			def{"parallel.wall_nw_ms.gap." + k, "ms"},
		)
	}
	ds = append(ds,
		def{"harness.select_roots_s", "s"},
		def{"harness.self_s", "s"},
		def{"power.meter_ms", "ms"},
		def{"server.new_s", "s"},
		def{"server.vectors_ms", "ms"},
		def{"server.sketch_ms", "ms"},
	)
	for _, op := range serveOps {
		ds = append(ds, def{"server.service_ms." + op, "ms"})
	}
	ds = append(ds,
		def{"server.wait_share", "share"},
		def{"server.shed", "count"},
		def{"server.deadline", "count"},
		def{"server.degraded", "count"},
		def{"server.max_queue_depth", "count"},
		def{"loadgen.late_ms_p99", "ms"},
	)
	for _, op := range serveOps {
		ds = append(ds, def{"verify.wrong." + op, "count"})
	}
	return append(ds, def{"trace.overhead_share", "share"})
}

// median returns the middle value (mean of the middle two), 0 if empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs and how many
// samples lie beyond it.
func percentile(xs []float64, q float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s) - 1 - i
}

// minBeyond is how many samples a reported tail percentile must have
// beyond it.
const minBeyond = 10

// tail returns the highest percentile at or below q that has at least
// minBeyond samples beyond it, its label (as "p99") and those samples.
// With too few samples for any such percentile it returns the q-th.
func tail(xs []float64, q float64) (float64, string, int) {
	if n := len(xs); n > minBeyond {
		q = math.Min(q, float64(n-minBeyond)/float64(n))
	}
	v, beyond := percentile(xs, q)
	return v, "p" + strconv.FormatFloat(100*q, 'g', 4, 64), beyond
}

// geomean returns the geometric mean of positive xs, 0 if empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// cpuTicks returns the host's steal and total CPU ticks from
// /proc/stat: time the hypervisor gave this machine's CPUs to others
// stretches wall-clock latencies without showing in process CPU time.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// rssSampler polls the process's resident set size every millisecond
// and keeps the largest value seen since the last take.
type rssSampler struct {
	peak atomic.Int64 // bytes
	quit chan struct{}
	done chan struct{}
}

func startRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	page := int64(os.Getpagesize())
	go func() {
		defer close(s.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			if b, err := os.ReadFile("/proc/self/statm"); err == nil {
				if f := strings.Fields(string(b)); len(f) > 1 {
					pages, _ := strconv.ParseInt(f[1], 10, 64)
					for v := pages * page; ; {
						old := s.peak.Load()
						if v <= old || s.peak.CompareAndSwap(old, v) {
							break
						}
					}
				}
			}
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// take returns the peak in MB since the last take and restarts it.
func (s *rssSampler) take() float64 {
	return float64(s.peak.Swap(0)) / (1 << 20)
}

func (s *rssSampler) stop() {
	close(s.quit)
	<-s.done
}

// stealMeter measures the host's steal share over an interval.
type stealMeter struct{ steal, total float64 }

func startSteal() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

// share returns the steal share of all CPU ticks since start.
func (m stealMeter) share() float64 {
	s, t := cpuTicks()
	if t <= m.total {
		return 0
	}
	return (s - m.steal) / (t - m.total)
}
