// Command perfbench is the repository's benchmark. One invocation runs one
// workload and prints, as the last line of standard output, one JSON object
// with the keys correct, attempted, failed and metrics: the end-to-end
// metrics with -trace 0 and the per-layer metrics with -trace 1.
//
//	perfbench -workload figure-sweep -seed 1 -seconds 20 -trace 0
//
// Workloads (README.md has the workload → layer → metric map):
//
//   - figure-sweep: regenerates fig9, table3, fig12 and fig13 through
//     imp.Experiments.Run with checkpoints off and traces served from the
//     in-memory trace cache — the simulator's components do the work.
//   - ckpt-resweep: the same figures with checkpoints on, from a warm disk
//     trace and checkpoint cache after flushing the in-process caches — trace
//     decode, the cache layers and sim.Restore do the work.
//   - fleet-jobs: two closed-loop clients drive an in-process router plus two
//     backends with small sweep jobs, most of them cached or deduplicated —
//     routing, queueing, HTTP/JSON and the result store do the work.
//
// End-to-end numbers come only from untraced passes. The traced run (-trace
// 1) alternates untraced and traced passes, records spans around the
// benchmark's calls into the program's public functions, and adds the
// per-layer measurements each workload owns.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// params is the fixed work of every workload. The benchmark's command line
// sets only the seed and the measuring time; tests shrink the rest.
type params struct {
	seed    int64
	workDir string
	// workers bounds concurrent simulations in the sweep workloads and
	// in set-up: the host's CPU count.
	workers int
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int

	// Sweep workloads: core count, input scale and the figures regenerated.
	cores   int
	scale   float64
	figures []string

	// fleet-jobs: the spec pool is every workload × poolTraceSeeds trace
	// seeds × the sweep variants; a pass draws each spec jobsPerPool times.
	fleetCores     int
	fleetScale     float64
	poolTraceSeeds int
	jobsPerPool    int
	fleetClients   int
	fleetBackends  int
	routerSamples  int
}

func defaultParams(seed int64, workDir string) params {
	return params{
		seed:           seed,
		workDir:        workDir,
		workers:        runtime.NumCPU(),
		setupReps:      3,
		cores:          16,
		scale:          0.1,
		figures:        []string{"fig9", "table3", "fig12", "fig13"},
		fleetCores:     4,
		fleetScale:     0.05,
		poolTraceSeeds: 2,
		jobsPerPool:    6,
		fleetClients:   2,
		fleetBackends:  2,
		routerSamples:  40,
	}
}

// tracedPairs is how many untraced and traced passes a traced run makes.
const tracedPairs = 3

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"figure-sweep", "ckpt-resweep", "fleet-jobs"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed: drives ExpOptions.Seed and the fleet's spec pool and draw order")
	seconds := fs.Float64("seconds", 20, "measuring time of an untraced run (passes repeat until it is used)")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "directory for caches and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	fmt.Fprintln(stderr, "perfbench: host", hostFingerprint())
	p := defaultParams(*seed, *work)
	rep, err := runWorkload(*name, p, time.Duration(*seconds*float64(time.Second)), *traced == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report is the result line.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// runner is one benchmark workload: a repeatable set-up, a pass of fixed
// work, and the per-layer measurements it owns.
type runner interface {
	// setup prepares the pass inputs from scratch; it is timed.
	setup() error
	// pass runs the fixed work once; tr is nil in untraced passes.
	pass(tr *tracer) (passStats, error)
	// layers fills the per-layer metrics after a traced pass and returns
	// the operations its own checks attempted and failed.
	layers(traced passStats, m metrics) (attempted, failed int, err error)
}

func newRunner(name string, p params) (runner, error) {
	switch name {
	case "figure-sweep":
		return newSweepWorkload(p, false), nil
	case "ckpt-resweep":
		return newSweepWorkload(p, true), nil
	case "fleet-jobs":
		return &fleetWorkload{p: p}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

func runWorkload(name string, p params, seconds time.Duration, traced bool, stdout io.Writer) (*report, error) {
	w, err := newRunner(name, p)
	if err != nil {
		return nil, err
	}
	if traced {
		return tracedRun(name, w, p, stdout)
	}
	setups, warm, err := prepare(name, w, p.setupReps)
	if err != nil {
		return nil, err
	}
	resetPeakRSS()
	var passes []passStats
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < seconds {
		ps, err := measuredPass(w, nil)
		if err != nil {
			return nil, fmt.Errorf("%s pass: %w", name, err)
		}
		passes = append(passes, ps)
	}
	rep := &report{Metrics: endToEnd(passes, setups), Attempted: warm.attempted, Failed: warm.failed}
	for _, ps := range passes {
		rep.Attempted += ps.attempted
		rep.Failed += ps.failed
	}
	rep.Correct = rep.Failed == 0
	all := pooledJobs(passes)
	fmt.Fprintf(stdout, "%s seed %d: %d passes, %d jobs (%d cold) in the latency percentiles, wall_s %.4f\n",
		name, p.seed, len(passes), len(all), countCold(all), rep.Metrics["wall_s"].Value)
	return rep, nil
}

// prepare times reps set-ups, then runs one warm-up pass that lets lazy
// state settle; the warm-up's outputs are checked, its times are not kept.
func prepare(name string, w runner, reps int) ([]float64, passStats, error) {
	setups := make([]float64, reps)
	for i := range setups {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, passStats{}, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups[i] = time.Since(t0).Seconds()
	}
	warm, err := w.pass(nil)
	if err != nil {
		return nil, passStats{}, fmt.Errorf("%s warm-up pass: %w", name, err)
	}
	return setups, warm, nil
}

// measuredPass starts each measured pass from a collected heap, so garbage
// one pass leaves does not land on the next one's clock or memory peak.
func measuredPass(w runner, tr *tracer) (passStats, error) {
	runtime.GC()
	return w.pass(tr)
}

// tracedRun runs, after one set-up and a warm-up pass, tracedPairs pairs of
// an untraced and a traced pass, alternating which goes first; the tracing
// overhead is the difference of their median walls. The last traced pass
// gives the spans and the per-layer metrics, and the workload adds the
// measurements it owns. Every per-layer metric is emitted; one a workload
// does not exercise reads 0 (README.md says which and why).
func tracedRun(name string, w runner, p params, stdout io.Writer) (*report, error) {
	_, warm, err := prepare(name, w, 1)
	if err != nil {
		return nil, err
	}
	var traced passStats
	var tr *tracer
	var walls [2][]float64
	attempted, failed := warm.attempted, warm.failed
	for i := 0; i < tracedPairs; i++ {
		for _, withTrace := range [2]bool{i%2 == 1, i%2 == 0} {
			var t *tracer
			if withTrace {
				t = newTracer()
			}
			ps, err := measuredPass(w, t)
			if err != nil {
				return nil, fmt.Errorf("%s pass: %w", name, err)
			}
			attempted += ps.attempted
			failed += ps.failed
			if withTrace {
				traced, tr = ps, t
				walls[1] = append(walls[1], ps.wall.Seconds())
			} else {
				walls[0] = append(walls[0], ps.wall.Seconds())
			}
		}
	}
	m := zeroLayers()
	a, f, err := w.layers(traced, m)
	if err != nil {
		return nil, fmt.Errorf("%s per-layer measurements: %w", name, err)
	}
	attempted += a
	failed += f

	self, top := tr.selfTimes()
	for _, layer := range spanLayers {
		m.set("span."+layer+".self_s", self[layer], "s")
		if top > 0 {
			m.set("span."+layer+".share", self[layer]/top, "frac")
		}
	}
	m.set("tracing.overhead_s", median(walls[1])-median(walls[0]), "s")
	m.set("error_frac", float64(failed)/float64(max(attempted, 1)), "frac")

	path := filepath.Join(p.workDir, "spans", fmt.Sprintf("%s-seed%d.json", name, p.seed))
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s seed %d: median traced pass %.4fs, untraced %.4fs; %d spans in %s\n",
		name, p.seed, median(walls[1]), median(walls[0]), len(tr.spans), path)
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
