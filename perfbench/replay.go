package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/bits"
	"path/filepath"
	"time"

	"github.com/impsim/imp"
	"github.com/impsim/imp/internal/cache"
	"github.com/impsim/imp/internal/coherence"
	"github.com/impsim/imp/internal/core"
	"github.com/impsim/imp/internal/cpu"
	"github.com/impsim/imp/internal/dram"
	"github.com/impsim/imp/internal/mem"
	"github.com/impsim/imp/internal/noc"
	"github.com/impsim/imp/internal/prefetch"
	"github.com/impsim/imp/internal/progcache"
	"github.com/impsim/imp/internal/sim"
	"github.com/impsim/imp/internal/trace"
	"github.com/impsim/imp/internal/workload"
)

// replayTotals accumulates one component replay: operations per component
// and the host time of each component's whole-loop phase.
type replayTotals struct {
	accesses, l1Misses, l2Misses, tiles, impReqs         uint64
	l1, l2, newCaches, imp, stream, coh, noc, dram, gate time.Duration
}

func (t *replayTotals) add(o replayTotals) {
	t.accesses += o.accesses
	t.l1Misses += o.l1Misses
	t.l2Misses += o.l2Misses
	t.tiles += o.tiles
	t.impReqs += o.impReqs
	t.l1 += o.l1
	t.l2 += o.l2
	t.newCaches += o.newCaches
	t.imp += o.imp
	t.stream += o.stream
	t.coh += o.coh
	t.noc += o.noc
	t.dram += o.dram
	t.gate += o.gate
}

func nsPer(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// componentReplay drives each simulator component's public API directly
// with the access stream of every figure-set kernel's trace. Each component
// runs in one timed whole-loop phase per kernel: a timer around each call
// would cost more than an L1 lookup. dense, which the figures leave out, is
// replayed as the bypass control of the two outcome ratios.
func componentReplay(p params, m metrics) error {
	paper := map[string]bool{}
	for _, wl := range imp.PaperWorkloads() {
		paper[wl] = true
	}
	var sum, dense replayTotals
	for _, wl := range imp.Workloads() {
		prog, err := progcache.Get(wl, workload.Options{Cores: p.cores, Scale: p.scale, Seed: imp.ExpSeed(p.seed, wl)})
		if err != nil {
			return err
		}
		t := replayKernel(prog)
		switch {
		case paper[wl]:
			sum.add(t)
		case wl == "dense":
			dense = t
		}
	}
	m.set("cache.l1.ns_per_op", nsPer(sum.l1, sum.accesses), "ns")
	m.set("cache.l1.miss_ratio", float64(sum.l1Misses)/float64(max(sum.accesses, 1)), "frac")
	m.set("cache.l1.miss_ratio.dense", float64(dense.l1Misses)/float64(max(dense.accesses, 1)), "frac")
	m.set("cache.l2.ns_per_op", nsPer(sum.l2, sum.l1Misses), "ns")
	m.set("cache.new_us", nsPer(sum.newCaches, sum.tiles)/1e3, "us")
	m.set("core.imp.observe_ns", nsPer(sum.imp, sum.accesses), "ns")
	m.set("core.imp.prefetches_per_kaccess", float64(sum.impReqs)*1e3/float64(max(sum.accesses, 1)), "1/kaccess")
	m.set("core.imp.prefetches_per_kaccess.dense", float64(dense.impReqs)*1e3/float64(max(dense.accesses, 1)), "1/kaccess")
	m.set("prefetch.stream.observe_ns", nsPer(sum.stream, sum.accesses), "ns")
	m.set("coherence.ns_per_op", nsPer(sum.coh, sum.l1Misses), "ns")
	m.set("noc.send_ns", nsPer(sum.noc, 2*sum.l1Misses), "ns")
	m.set("dram.access_ns", nsPer(sum.dram, sum.l2Misses), "ns")
	m.set("cpu.ooo.gate_ns", nsPer(sum.gate, sum.accesses), "ns")
	return nil
}

// l2SliceBytes is Table 1's per-tile L2 capacity, 2/√N MB rounded down to
// a power of two, as the simulator sizes it.
func l2SliceBytes(cores int) int {
	root := 1
	for (root+1)*(root+1) <= cores {
		root++
	}
	return 1 << (bits.Len(uint(2*1024*1024/root)) - 1)
}

// missRef is one L1 miss in the shared-resource phases.
type missRef struct {
	core  int
	line  uint64
	store bool
}

// replayKernel replays one program's demand accesses through every
// component with Table 1's configuration. Inputs for each phase are built
// before its timer starts. Shared components (L2 slices, directory, NoC,
// DRAM) see the L1 misses interleaved round-robin across cores.
func replayKernel(prog *trace.Program) replayTotals {
	var t replayTotals
	cores := prog.Cores()
	scfg := sim.DefaultConfig(cores)
	l1cfg := cache.Config{SizeBytes: scfg.L1SizeBytes, Ways: scfg.L1Ways, SectorBytes: mem.LineSize}
	l2cfg := cache.Config{SizeBytes: l2SliceBytes(cores), Ways: scfg.L2Ways, SectorBytes: mem.LineSize}

	recs := make([][]trace.Record, cores)
	for c, tr := range prog.Traces {
		for _, r := range tr.Records {
			if !r.IsBarrier() && !r.IsGapOnly() && !r.IsSWPrefetch() {
				recs[c] = append(recs[c], r)
			}
		}
		t.accesses += uint64(len(recs[c]))
	}

	// Cache construction, one L1 and one L2 slice per tile.
	t.tiles = uint64(cores)
	l1s, l2s := make([]*cache.Cache, cores), make([]*cache.Cache, cores)
	t0 := time.Now()
	for c := 0; c < cores; c++ {
		l1s[c], l2s[c] = cache.New(l1cfg), cache.New(l2cfg)
	}
	t.newCaches = time.Since(t0)

	// L1: lookup, fill on a miss.
	miss := make([][]bool, cores)
	for c := range miss {
		miss[c] = make([]bool, len(recs[c]))
	}
	t0 = time.Now()
	for c, rs := range recs {
		l1 := l1s[c]
		for i, r := range rs {
			line := r.Addr.LineID()
			if res, _ := l1.Lookup(line, l1.MaskFor(r.Addr, int(r.Size))); res != cache.Hit {
				miss[c][i] = true
				st := cache.Shared
				if r.IsStore() {
					st = cache.Modified
				}
				l1.Insert(line, l1.FullMask(), st, 0, false)
			}
		}
	}
	t.l1 = time.Since(t0)

	var misses []missRef
	for i := 0; ; i++ {
		more := false
		for c := range recs {
			if i < len(recs[c]) {
				more = true
				if miss[c][i] {
					misses = append(misses, missRef{c, recs[c][i].Addr.LineID(), recs[c][i].IsStore()})
				}
			}
		}
		if !more {
			break
		}
	}
	t.l1Misses = uint64(len(misses))

	// L2: the home slice's lookup, fill on a miss.
	var l2miss []uint64
	n := uint64(cores)
	t0 = time.Now()
	for _, ms := range misses {
		l2 := l2s[ms.line%n]
		if res, _ := l2.Lookup(ms.line/n, l2.FullMask()); res != cache.Hit {
			l2.Insert(ms.line/n, l2.FullMask(), cache.Shared, 0, false)
			l2miss = append(l2miss, ms.line)
		}
	}
	t.l2 = time.Since(t0)
	t.l2Misses = uint64(len(l2miss))

	// Prefetchers: IMP and the stream prefetcher observe every access.
	accs := make([][]prefetch.Access, cores)
	for c, rs := range recs {
		rd := mem.NewCachedReader(prog.Space)
		accs[c] = make([]prefetch.Access, len(rs))
		for i, r := range rs {
			a := prefetch.Access{PC: r.PC, Addr: r.Addr, Size: int(r.Size), Store: r.IsStore(), Miss: miss[c][i]}
			if !a.Store {
				a.Value = rd.ReadWord(r.Addr)
			}
			accs[c][i] = a
		}
	}
	var reqs []prefetch.Request
	for c := range accs {
		pf := core.New(core.DefaultParams(), mem.NewCachedReader(prog.Space))
		t0 = time.Now()
		for _, a := range accs[c] {
			reqs = pf.Observe(a, reqs[:0])
			t.impReqs += uint64(len(reqs))
		}
		t.imp += time.Since(t0)
	}
	for c := range accs {
		pf := prefetch.NewStream(prefetch.DefaultStreamConfig())
		t0 = time.Now()
		for _, a := range accs[c] {
			reqs = pf.Observe(a, reqs[:0])
		}
		t.stream += time.Since(t0)
	}

	// Coherence directory at each miss's home.
	dirs := make([]*coherence.Directory, cores)
	for i := range dirs {
		dirs[i] = coherence.New(coherence.DefaultK, cores)
	}
	t0 = time.Now()
	for _, ms := range misses {
		d := dirs[ms.line%n]
		if ms.store {
			d.Write(ms.line, ms.core)
		} else {
			d.Read(ms.line, ms.core)
		}
	}
	t.coh = time.Since(t0)

	// NoC: request to the home tile and a data response back.
	mesh := noc.New(noc.DefaultConfig(cores))
	var now int64
	t0 = time.Now()
	for _, ms := range misses {
		home := int(ms.line % n)
		at := mesh.Send(now, ms.core, home, 0)
		mesh.Send(at, home, ms.core, mem.LineSize)
		now += 4
	}
	t.noc = time.Since(t0)

	// DRAM: one line transfer per L2 miss.
	nmc := dram.MCCountForCores(cores)
	dm := dram.NewSimple(dram.DefaultSimpleConfig(nmc))
	now = 0
	t0 = time.Now()
	for _, line := range l2miss {
		dm.Access(now, dram.MCForLine(line, nmc), line, mem.LineSize)
		now += 4
	}
	t.dram = time.Since(t0)

	// Out-of-order pipeline gating, with an L1 hit or a memory latency
	// per load.
	for c, rs := range recs {
		pipe := cpu.New(cpu.OutOfOrder, cpu.DefaultWindow)
		var instr uint64
		now = 0
		t0 = time.Now()
		for i, r := range rs {
			instr++
			now = pipe.Gate(now, instr, r.DependsOnPrev())
			lat := int64(1)
			if miss[c][i] {
				lat = 100
			}
			pipe.NoteLoad(instr, now+lat)
			now++
		}
		t.gate += time.Since(t0)
	}
	return t
}

// cacheLayers measures the layers a warm re-sweep runs through: trace loads
// from the disk cache, the binary trace codec, checkpoint bytes on disk and
// the simulator's snapshot codec. It checks that every trace load hit the
// disk cache.
func (w *sweepWorkload) cacheLayers(m metrics) (attempted, failed int, err error) {
	grid, err := w.gridConfigs()
	if err != nil {
		return 0, 0, err
	}
	type traceKey struct {
		workload string
		swpref   bool
		seed     int64
	}
	var keys []traceKey
	seen := map[traceKey]bool{}
	for _, c := range grid {
		k := traceKey{c.Workload, c.System == imp.SystemSWPrefetch, c.Seed}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	progcache.Flush()
	progs := make([]*imp.Program, len(keys))
	t0 := time.Now()
	for i, k := range keys {
		if progs[i], err = imp.BuildProgram(k.workload, w.p.cores, w.p.scale, k.swpref, k.seed); err != nil {
			return 0, 0, err
		}
	}
	m.set("progcache.load_s", time.Since(t0).Seconds(), "s")
	attempted++
	if progcache.GetStats().DiskHits != uint64(len(keys)) {
		failed++
	}

	var enc, dec time.Duration
	var encoded int
	for _, prog := range progs {
		var buf bytes.Buffer
		t0 = time.Now()
		if _, err := prog.WriteTo(&buf); err != nil {
			return 0, 0, err
		}
		enc += time.Since(t0)
		t0 = time.Now()
		if _, err := imp.ReadProgram(bytes.NewReader(buf.Bytes())); err != nil {
			return 0, 0, err
		}
		dec += time.Since(t0)
		encoded += buf.Len()
	}
	m.set("trace.encode_mb_per_s", float64(encoded)/1e6/enc.Seconds(), "MB/s")
	m.set("trace.decode_mb_per_s", float64(encoded)/1e6/dec.Seconds(), "MB/s")

	var onDisk int64
	err = filepath.WalkDir(filepath.Join(w.dir, "ckpt"), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			onDisk += info.Size()
		}
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	m.set("sim.snapshot_mb", float64(onDisk)/1e6, "MB")

	// The snapshot codec on each kernel's IMP system, cut halfway through
	// core 0's records; three round trips per kernel.
	var snapT, restT time.Duration
	var snapBytes int
	for _, wl := range imp.PaperWorkloads() {
		prog, err := progcache.Get(wl, workload.Options{Cores: w.p.cores, Scale: w.p.scale, Seed: imp.ExpSeed(w.p.seed, wl)})
		if err != nil {
			return 0, 0, err
		}
		cfg := sim.DefaultConfig(w.p.cores)
		cfg.Prefetcher = sim.PrefetchIMP
		sys, err := sim.New(prog.Source(), cfg)
		if err != nil {
			return 0, 0, err
		}
		if err := sys.RunUntil(len(prog.Traces[0].Records) / 2); err != nil {
			return 0, 0, err
		}
		for rep := 0; rep < 3; rep++ {
			t0 = time.Now()
			data, err := sys.Snapshot()
			if err != nil {
				return 0, 0, err
			}
			snapT += time.Since(t0)
			t0 = time.Now()
			if _, err := sim.Restore(prog.Source(), cfg, data); err != nil {
				return 0, 0, fmt.Errorf("restoring %s: %w", wl, err)
			}
			restT += time.Since(t0)
			snapBytes += len(data)
		}
	}
	m.set("sim.snapshot_mb_per_s", float64(snapBytes)/1e6/snapT.Seconds(), "MB/s")
	m.set("sim.restore_mb_per_s", float64(snapBytes)/1e6/restT.Seconds(), "MB/s")
	return attempted, failed, nil
}
