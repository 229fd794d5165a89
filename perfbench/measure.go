package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/impsim/imp"
)

// jobSample is one job's latency: a simulation point the harness ran in the
// sweep workloads, a submitted sweep in fleet-jobs. A cold job executed; the
// rest were served from a result store or joined a running duplicate.
type jobSample struct {
	latency time.Duration
	cold    bool
}

// passStats is what one pass of a workload's fixed work measured.
type passStats struct {
	wall  time.Duration
	alloc uint64 // bytes allocated during the pass

	attempted, failed int

	points       int    // simulation points delivered
	instructions uint64 // simulated instructions of those points
	jobs         []jobSample

	// pointElapsed holds each simulated point's host time (ProgressEvent.
	// Elapsed, or the streamed events of the jobs that executed).
	pointElapsed []time.Duration

	// speedup and coverage are the simulated IMP outcomes the pass
	// delivered: geomean Base/IMP cycles and mean IMP coverage.
	speedup, coverage float64

	// Trace-cache and checkpoint outcomes during the pass.
	progMemHits, progDiskHits uint64
	ckptHits, ckptMisses      uint64

	fleet *fleetDetail // fleet-jobs only
}

// meter times a pass and the bytes it allocates.
type meter struct {
	t0 time.Time
	a0 uint64
}

func startMeter() meter { return meter{t0: time.Now(), a0: totalAlloc()} }

func (m meter) stop(ps *passStats) {
	ps.wall = time.Since(m.t0)
	ps.alloc = totalAlloc() - m.a0
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// endToEnd reduces the untraced passes of a run to the end-to-end metrics:
// per-pass figures as medians over passes, latencies as percentiles over
// every job of the run.
func endToEnd(passes []passStats, setups []float64) metrics {
	m := metrics{}
	var wall, pts, instr, jobs, alloc []float64
	for _, ps := range passes {
		s := ps.wall.Seconds()
		wall = append(wall, s)
		pts = append(pts, float64(ps.points)/s)
		instr = append(instr, float64(ps.instructions)/s/1e6)
		jobs = append(jobs, float64(len(ps.jobs))/s)
		alloc = append(alloc, float64(ps.alloc)/1e6)
	}
	all := pooledJobs(passes)
	var lat, cold []float64
	for _, j := range all {
		ms := float64(j.latency) / float64(time.Millisecond)
		lat = append(lat, ms)
		if j.cold {
			cold = append(cold, ms)
		}
	}
	m.set("setup_s", median(setups), "s")
	m.set("wall_s", median(wall), "s")
	m.set("points_per_s", median(pts), "1/s")
	m.set("sim_minstr_per_s", median(instr), "Minstr/s")
	m.set("jobs_per_s", median(jobs), "1/s")
	m.set("job_p50_ms", percentile(lat, 0.50), "ms")
	m.set("job_p99_ms", percentile(lat, 0.99), "ms")
	m.set("cold_job_p50_ms", percentile(cold, 0.50), "ms")
	m.set("alloc_mb", median(alloc), "MB")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	m.set("sim_imp_speedup", passes[0].speedup, "x")
	m.set("sim_imp_coverage", passes[0].coverage, "frac")
	return m
}

func pooledJobs(passes []passStats) []jobSample {
	var all []jobSample
	for _, ps := range passes {
		all = append(all, ps.jobs...)
	}
	return all
}

func countCold(jobs []jobSample) int {
	n := 0
	for _, j := range jobs {
		if j.cold {
			n++
		}
	}
	return n
}

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

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func sumDurations(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func maxDuration(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t = max(t, d)
	}
	return t
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// resetPeakRSS returns set-up's garbage to the OS and restarts the kernel's
// resident-set high-water mark, so the peak reported covers the measured
// phase and not set-up. Where the kernel refuses the reset, the peak covers
// the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM), falling back to
// getrusage's whole-process maximum.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// hostFingerprint names the host a measurement was taken on.
func hostFingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// spanLayers are the span names of a traced pass, top-level span first.
var spanLayers = []string{
	"pass", "progcache.flush", "ckptcache.flush", "imp.experiment", "sim.point",
	"client.job", "client.submit", "client.stream", "client.result",
}

// layerUnits lists every per-layer metric with its unit, apart from the
// span metrics derived from spanLayers. BENCHMARK.json's per_layer list is
// this table plus the span metrics; a test keeps the two in step.
var layerUnits = func() [][2]string {
	u := [][2]string{
		{"error_frac", "frac"},
		{"tracing.overhead_s", "s"},
		{"harness.busy_frac", "frac"},
		{"harness.slowest_point_s", "s"},
		{"sim.run_s", "s"},
	}
	for _, k := range nsPerAccessGroups {
		u = append(u, [2]string{"sim.ns_per_access." + k, "ns"})
	}
	for _, k := range simCountNames {
		u = append(u, [2]string{"sim." + k, "count"})
	}
	for _, w := range imp.Workloads() {
		u = append(u, [2]string{"sim.imp_speedup." + w, "x"})
	}
	return append(u, [][2]string{
		{"cache.l1.ns_per_op", "ns"},
		{"cache.l1.miss_ratio", "frac"},
		{"cache.l1.miss_ratio.dense", "frac"},
		{"cache.l2.ns_per_op", "ns"},
		{"cache.new_us", "us"},
		{"core.imp.observe_ns", "ns"},
		{"core.imp.prefetches_per_kaccess", "1/kaccess"},
		{"core.imp.prefetches_per_kaccess.dense", "1/kaccess"},
		{"prefetch.stream.observe_ns", "ns"},
		{"coherence.ns_per_op", "ns"},
		{"noc.send_ns", "ns"},
		{"dram.access_ns", "ns"},
		{"cpu.ooo.gate_ns", "ns"},
		{"progcache.load_s", "s"},
		{"progcache.disk_hits", "count"},
		{"progcache.mem_hits", "count"},
		{"trace.decode_mb_per_s", "MB/s"},
		{"trace.encode_mb_per_s", "MB/s"},
		{"ckptcache.hits", "count"},
		{"ckptcache.misses", "count"},
		{"sim.snapshot_mb", "MB"},
		{"sim.snapshot_mb_per_s", "MB/s"},
		{"sim.restore_mb_per_s", "MB/s"},
		{"ckpt.fork_s", "s"},
		{"client.submit_ms.cached.p50", "ms"},
		{"client.submit_ms.cold.p50", "ms"},
		{"client.stream_ms.p50", "ms"},
		{"client.result_ms.p50", "ms"},
		{"service.queue_wait_ms.p50", "ms"},
		{"service.exec_ms.p50", "ms"},
		{"service.hit_ratio", "frac"},
		{"service.executed", "count"},
		{"service.store_hits", "count"},
		{"service.store_puts", "count"},
		{"service.recomputes", "count"},
		{"router.self_ms.p50", "ms"},
		{"router.replica_puts", "count"},
		{"router.read_repairs", "count"},
	}...)
}()

// zeroLayers returns every per-layer metric at 0. A workload overwrites the
// ones it exercises; the rest read 0 because the workload bypasses that
// layer.
func zeroLayers() metrics {
	m := metrics{}
	for _, u := range layerUnits {
		m.set(u[0], 0, u[1])
	}
	for _, layer := range spanLayers {
		m.set("span."+layer+".self_s", 0, "s")
		m.set("span."+layer+".share", 0, "frac")
	}
	return m
}
