package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/impsim/imp"
	"github.com/impsim/imp/internal/ckptcache"
	"github.com/impsim/imp/internal/progcache"
	"github.com/impsim/imp/internal/sim"
)

// sweepWorkload is figure-sweep (ckpt false) and ckpt-resweep (ckpt true):
// the same figures through imp.Experiments.Run, with checkpoints off or on.
type sweepWorkload struct {
	p    params
	ckpt bool
	// dir holds ckpt-resweep's on-disk trace and checkpoint caches.
	dir string
	// points and instructions are one pass's simulation points and their
	// simulated instructions, from the figure grids and the built traces.
	points       int
	instructions uint64
	// ref holds each figure's reference table bytes: figure-sweep's first
	// pass, or for ckpt-resweep a checkpoints-off run (figure-sweep's
	// path), so its warm passes must reproduce figure-sweep's bytes.
	ref map[string][]byte
}

func newSweepWorkload(p params, ckpt bool) *sweepWorkload {
	return &sweepWorkload{p: p, ckpt: ckpt, dir: filepath.Join(p.workDir, "ckpt-resweep")}
}

// figureGrid mirrors the sweep grid of each figure the sweep workloads
// regenerate: its workloads and per-workload configs. A pass checks that
// each figure simulated exactly this many points, and the traced run
// replays the grid through imp.RunSweep to read each point's metrics.
func figureGrid(id string) ([]string, []imp.Config, error) {
	paper := imp.PaperWorkloads()
	sys := func(ss ...imp.System) []imp.Config {
		out := make([]imp.Config, len(ss))
		for i, s := range ss {
			out[i] = imp.Config{System: s}
		}
		return out
	}
	switch id {
	case "fig9":
		return paper, sys(imp.SystemPerfect, imp.SystemBaseline, imp.SystemIMP, imp.SystemSWPrefetch), nil
	case "table3":
		return paper, sys(imp.SystemPerfect, imp.SystemBaseline, imp.SystemIMP), nil
	case "fig12":
		return paper, sys(imp.SystemIMP, imp.SystemIMPPartial), nil
	case "fig13":
		var cfgs []imp.Config
		for _, s := range []imp.System{imp.SystemBaseline, imp.SystemIMP, imp.SystemIMPPartial} {
			cfgs = append(cfgs, imp.Config{System: s}, imp.Config{System: s, OutOfOrder: true})
		}
		return []string{"pagerank", "sgd"}, cfgs, nil
	}
	return nil, nil, fmt.Errorf("no sweep grid for figure %q", id)
}

// gridConfigs returns every point of the figures' grids, fully resolved the
// way the experiment runners resolve them.
func (w *sweepWorkload) gridConfigs() ([]imp.Config, error) {
	var out []imp.Config
	for _, id := range w.p.figures {
		ws, cfgs, err := figureGrid(id)
		if err != nil {
			return nil, err
		}
		for _, wl := range ws {
			for _, c := range cfgs {
				c.Workload, c.Cores, c.Scale, c.Seed = wl, w.p.cores, w.p.scale, imp.ExpSeed(w.p.seed, wl)
				out = append(out, c)
			}
		}
	}
	return out, nil
}

func (w *sweepWorkload) expOptions(ckpt bool, onProgress func(imp.ProgressEvent)) imp.ExpOptions {
	o := imp.ExpOptions{Cores: w.p.cores, Scale: w.p.scale, RunOptions: imp.RunOptions{
		Parallelism: w.p.workers, Seed: w.p.seed, OnProgress: onProgress,
	}}
	if ckpt {
		o.Checkpoints = imp.CheckpointPolicy{Enabled: true, Dir: filepath.Join(w.dir, "ckpt")}
	}
	return o
}

// setup builds every trace the figures replay. figure-sweep keeps them in
// the in-memory trace cache only; ckpt-resweep starts from empty disk
// caches and fills the trace and checkpoint caches with a cold
// checkpointed run of the figures.
func (w *sweepWorkload) setup() error {
	progcache.Flush()
	ckptcache.Flush()
	traceDir := "off"
	if w.ckpt {
		if err := os.RemoveAll(w.dir); err != nil {
			return err
		}
		traceDir = filepath.Join(w.dir, "traces")
	}
	if err := os.Setenv(progcache.EnvDir, traceDir); err != nil {
		return err
	}
	grid, err := w.gridConfigs()
	if err != nil {
		return err
	}
	w.points, w.instructions = len(grid), 0
	for _, c := range grid {
		prog, err := imp.BuildProgram(c.Workload, c.Cores, c.Scale, c.System == imp.SystemSWPrefetch, c.Seed)
		if err != nil {
			return err
		}
		w.instructions += prog.Instructions()
	}
	if w.ckpt {
		_, err = w.runFigures(true)
	}
	return err
}

// runFigures regenerates the figures once, untimed, and returns their
// table bytes.
func (w *sweepWorkload) runFigures(ckpt bool) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, id := range w.p.figures {
		tbl, err := imp.Experiments.Run(id, w.expOptions(ckpt, nil))
		if err != nil {
			return nil, err
		}
		if out[id], err = tbl.JSON(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (w *sweepWorkload) pass(tr *tracer) (passStats, error) {
	if w.ckpt && w.ref == nil {
		ref, err := w.runFigures(false)
		if err != nil {
			return passStats{}, fmt.Errorf("checkpoints-off reference: %w", err)
		}
		w.ref = ref
	}
	var ps passStats
	tables := map[string]*imp.Table{}
	mt := startMeter()
	top := tr.begin("pass", openSpan{}, true)
	if w.ckpt {
		// A fresh process with a warm disk: empty in-process caches.
		s := tr.begin("progcache.flush", top, false)
		progcache.Flush()
		s.end()
		s = tr.begin("ckptcache.flush", top, false)
		ckptcache.Flush()
		s.end()
		imp.ResetCheckpointStats()
	}
	prog0 := progcache.GetStats()
	for _, id := range w.p.figures {
		exp := tr.begin("imp.experiment", top, false)
		opt := w.expOptions(w.ckpt, func(e imp.ProgressEvent) {
			ps.pointElapsed = append(ps.pointElapsed, e.Elapsed)
			ps.jobs = append(ps.jobs, jobSample{latency: e.Elapsed, cold: true})
			if e.Err != nil {
				ps.failed++
			}
			if tr != nil {
				now := time.Now()
				tr.record("sim.point", exp, now.Add(-e.Elapsed), now)
			}
		})
		tbl, err := imp.Experiments.Run(id, opt)
		exp.end()
		ps.attempted++
		if err != nil || !w.matchesRef(id, tbl) {
			ps.failed++
			continue
		}
		tables[id] = tbl
	}
	top.end()
	mt.stop(&ps)

	prog1 := progcache.GetStats()
	ps.progMemHits, ps.progDiskHits = prog1.MemHits-prog0.MemHits, prog1.DiskHits-prog0.DiskHits
	cs := imp.GetCheckpointStats()
	ps.ckptHits, ps.ckptMisses = cs.Hits, cs.Misses
	ps.points, ps.instructions = len(ps.pointElapsed), w.instructions
	// A point count off the grid means the figure grids drifted from the
	// experiment runners, and the instruction count with them. A warm
	// re-sweep that simulates anything cold missed the checkpoint cache.
	if ps.points != w.points || (w.ckpt && cs.Misses != 0) {
		ps.failed = ps.attempted
	}
	ps.speedup, ps.coverage = speedupCoverage(tables["fig9"], tables["table3"])
	return ps, nil
}

// matchesRef reports whether tbl's bytes equal the figure's reference; the
// first table of a figure-sweep run becomes the reference.
func (w *sweepWorkload) matchesRef(id string, tbl *imp.Table) bool {
	b, err := tbl.JSON()
	if err != nil {
		return false
	}
	if w.ref == nil {
		w.ref = map[string][]byte{}
	}
	want, ok := w.ref[id]
	if !ok {
		w.ref[id] = b
		return true
	}
	return bytes.Equal(b, want)
}

// speedupCoverage reads the simulated IMP outcome from the figures: the
// geomean over fig9's kernels of Base cycles ÷ IMP cycles (fig9 stores
// PerfPref/Base and PerfPref/IMP), and table3's average IMP coverage.
func speedupCoverage(fig9, table3 *imp.Table) (speedup, coverage float64) {
	col := func(t *imp.Table, name string) int {
		for i, c := range t.Columns {
			if c == name {
				return i
			}
		}
		return -1
	}
	if fig9 != nil {
		base, im := col(fig9, "base"), col(fig9, "imp")
		var ratios []float64
		for _, r := range fig9.Rows {
			if r.Label != "avg" && base >= 0 && im >= 0 {
				ratios = append(ratios, r.Values[im]/r.Values[base])
			}
		}
		speedup = geomean(ratios)
	}
	if table3 != nil {
		if cov := col(table3, "imp.cov"); cov >= 0 {
			for _, r := range table3.Rows {
				if r.Label == "avg" {
					coverage = r.Values[cov]
				}
			}
		}
	}
	return speedup, coverage
}

func (w *sweepWorkload) layers(traced passStats, m metrics) (attempted, failed int, err error) {
	busy := sumDurations(traced.pointElapsed)
	m.set("harness.busy_frac", busy.Seconds()/(traced.wall.Seconds()*float64(w.p.workers)), "frac")
	m.set("harness.slowest_point_s", maxDuration(traced.pointElapsed).Seconds(), "s")
	m.set("progcache.mem_hits", float64(traced.progMemHits), "count")
	m.set("progcache.disk_hits", float64(traced.progDiskHits), "count")
	if w.ckpt {
		// Every point forked from a checkpoint (misses are 0 or the pass
		// failed), so no point simulated from cold.
		m.set("ckpt.fork_s", busy.Seconds(), "s")
		m.set("ckptcache.hits", float64(traced.ckptHits), "count")
		m.set("ckptcache.misses", float64(traced.ckptMisses), "count")
		// Before the grid replay, whose dense points add checkpoints.
		if attempted, failed, err = w.cacheLayers(m); err != nil {
			return 0, 0, err
		}
	} else {
		m.set("sim.run_s", busy.Seconds(), "s")
		if err := componentReplay(w.p, m); err != nil {
			return 0, 0, err
		}
	}
	a, f, err := w.replayGrid(m, traced.speedup)
	return attempted + a, failed + f, err
}

// simCountNames are the simulated counts summed over the figure grid; a
// speed-only change must leave every one of them exactly equal.
var simCountNames = []string{
	"cycles", "instructions", "l1_misses", "prefetches_issued", "prefetches_used",
	"noc_flit_hops", "dram_bytes", "invalidations",
}

// addSimCounts adds one point's simulated counts, in simCountNames order.
func addSimCounts(counts []float64, r *sim.Metrics) {
	var misses uint64
	for _, k := range r.Kind {
		misses += k.Misses
	}
	for j, v := range []uint64{uint64(r.Cycles), r.Instructions, misses, r.PrefetchesIssued,
		r.PrefetchesUsed, r.NoCFlitHops, r.DRAMBytes, r.Invalidations} {
		counts[j] += float64(v)
	}
}

// nsPerAccessGroups name the point groups whose host nanoseconds per
// simulated access the traced figure-sweep run reports.
var nsPerAccessGroups = []string{"base", "imp", "partial", "ooo", "perfpref", "swpref"}

func nsGroup(c imp.Config) string {
	switch {
	case c.OutOfOrder:
		return "ooo"
	case c.System == imp.SystemBaseline:
		return "base"
	case c.System == imp.SystemIMP:
		return "imp"
	case c.System == imp.SystemIMPPartial:
		return "partial"
	case c.System == imp.SystemPerfect:
		return "perfpref"
	case c.System == imp.SystemSWPrefetch:
		return "swpref"
	}
	return ""
}

// replayGrid replays the figure grid, plus Base and IMP on every workload
// the grid leaves out (the dense control), through imp.RunSweep. It sums the
// simulated counts, reports the per-kernel IMP speedup and — on
// figure-sweep, where points simulate rather than fork — host time per
// simulated access. It checks that the grid's fig9 points reproduce the
// speedup the traced pass read from the fig9 table.
func (w *sweepWorkload) replayGrid(m metrics, tableSpeedup float64) (attempted, failed int, err error) {
	grid, err := w.gridConfigs()
	if err != nil {
		return 0, 0, err
	}
	cfgs := append([]imp.Config(nil), grid...)
	inGrid := map[string]bool{}
	for _, c := range grid {
		inGrid[c.Workload] = true
	}
	for _, wl := range imp.Workloads() {
		if !inGrid[wl] {
			for _, s := range []imp.System{imp.SystemBaseline, imp.SystemIMP} {
				cfgs = append(cfgs, imp.Config{Workload: wl, System: s, Cores: w.p.cores, Scale: w.p.scale, Seed: imp.ExpSeed(w.p.seed, wl)})
			}
		}
	}
	elapsed := make([]time.Duration, len(cfgs))
	opt := imp.SweepOptions{RunOptions: imp.RunOptions{
		Parallelism: w.p.workers,
		OnProgress:  func(e imp.ProgressEvent) { elapsed[e.Point] = e.Elapsed },
	}}
	if w.ckpt {
		opt.Checkpoints = w.expOptions(true, nil).Checkpoints
	}
	res, err := imp.RunSweep(context.Background(), cfgs, opt)
	if err != nil {
		return 0, 0, fmt.Errorf("grid replay: %w", err)
	}

	counts := make([]float64, len(simCountNames))
	nsTime, nsAcc := map[string]time.Duration{}, map[string]uint64{}
	cycles := map[[2]string]int64{} // (workload, system) → in-order cycles
	for i, c := range cfgs {
		r := res[i].Metrics
		if i < len(grid) {
			addSimCounts(counts, r)
			g := nsGroup(c)
			nsTime[g] += elapsed[i]
			nsAcc[g] += r.TotalAccesses()
		}
		if !c.OutOfOrder {
			cycles[[2]string{c.Workload, c.System.String()}] = r.Cycles
		}
	}
	for j, name := range simCountNames {
		m.set("sim."+name, counts[j], "count")
	}
	if !w.ckpt {
		for _, g := range nsPerAccessGroups {
			if nsAcc[g] > 0 {
				m.set("sim.ns_per_access."+g, float64(nsTime[g])/float64(nsAcc[g]), "ns")
			}
		}
	}
	for _, wl := range imp.Workloads() {
		b, i := cycles[[2]string{wl, "base"}], cycles[[2]string{wl, "imp"}]
		if b > 0 && i > 0 {
			m.set("sim.imp_speedup."+wl, float64(b)/float64(i), "x")
		}
	}
	var paper []float64
	for _, wl := range imp.PaperWorkloads() {
		paper = append(paper, m["sim.imp_speedup."+wl].Value)
	}
	attempted++
	if math.Abs(geomean(paper)-tableSpeedup) > 1e-9*tableSpeedup {
		failed++
	}
	return attempted, failed, nil
}
