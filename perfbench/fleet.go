package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/impsim/imp"
	"github.com/impsim/imp/api"
	"github.com/impsim/imp/client"
	"github.com/impsim/imp/internal/cluster"
	"github.com/impsim/imp/internal/progcache"
	"github.com/impsim/imp/internal/service"
)

// fleetWorkload is fleet-jobs: closed-loop clients submit small sweep jobs
// drawn from a seeded spec pool to a router in front of in-process
// backends. A pass draws every pool spec jobsPerPool times, so one
// submission in jobsPerPool executes and the rest are served from a result
// store or join a running duplicate.
type fleetWorkload struct {
	p     params
	rng   *rand.Rand // seeded in set-up: draws the pool and each pass's order
	pool  []poolSpec
	order []int // pool index of each job of the latest pass, in draw order
	// Per pass: simulation points and simulated instructions delivered.
	points       int
	instructions uint64
	// speedup and coverage are the simulated IMP outcome over the pool:
	// geomean Base/IMP cycles and mean IMP coverage.
	speedup, coverage float64
}

// poolSpec is one job spec with its expected result, computed in set-up
// by imp.RunSweep and marshalled as the service marshals it.
type poolSpec struct {
	spec    api.JobSpec
	want    []byte
	results []*imp.Result
}

// fleetVariants are the sweeps a pool spec runs on one trace: each pairs
// Base with IMP, so every job delivers an IMP speedup.
var fleetVariants = [][]imp.Config{
	{{System: imp.SystemBaseline}, {System: imp.SystemIMP}},
	{{System: imp.SystemBaseline, OutOfOrder: true}, {System: imp.SystemIMP, OutOfOrder: true}},
	{{System: imp.SystemBaseline}, {System: imp.SystemIMP, MaxPrefetchDistance: 8}},
}

// buildPool draws the spec pool from rng: every workload × poolTraceSeeds
// input seeds × fleetVariants.
func (w *fleetWorkload) buildPool(rng *rand.Rand) []api.JobSpec {
	var specs []api.JobSpec
	for _, wl := range imp.Workloads() {
		for s := 0; s < w.p.poolTraceSeeds; s++ {
			seed := rng.Int63n(1<<30) + 1
			for _, v := range fleetVariants {
				cfgs := append([]imp.Config(nil), v...)
				for i := range cfgs {
					cfgs[i].Workload, cfgs[i].Cores, cfgs[i].Scale, cfgs[i].Seed = wl, w.p.fleetCores, w.p.fleetScale, seed
				}
				specs = append(specs, api.JobSpec{Sweep: cfgs})
			}
		}
	}
	return specs
}

// setup draws the pool and computes every spec's expected result bytes
// (building its traces into the in-memory trace cache the backends share).
func (w *fleetWorkload) setup() error {
	progcache.Flush()
	if err := os.Setenv(progcache.EnvDir, "off"); err != nil {
		return err
	}
	w.rng = rand.New(rand.NewSource(w.p.seed))
	specs := w.buildPool(w.rng)
	var flat []imp.Config
	for _, s := range specs {
		flat = append(flat, s.Sweep...)
	}
	res, err := imp.RunSweep(context.Background(), flat, imp.SweepOptions{RunOptions: imp.RunOptions{Parallelism: w.p.workers}})
	if err != nil {
		return err
	}
	w.pool = make([]poolSpec, len(specs))
	var ratios []float64
	var cov float64
	for i, s := range specs {
		rs := res[:len(s.Sweep)]
		res = res[len(s.Sweep):]
		want, err := json.MarshalIndent(api.SweepResult{Results: rs}, "", "  ")
		if err != nil {
			return err
		}
		w.pool[i] = poolSpec{spec: s, want: want, results: rs}
		ratios = append(ratios, float64(rs[0].Cycles)/float64(rs[1].Cycles))
		cov += rs[1].Coverage
	}
	w.speedup, w.coverage = geomean(ratios), cov/float64(len(specs))
	// Every spec is drawn jobsPerPool times; each pass draws them in a
	// fresh seeded order, so it executes every spec once and serves the
	// other draws from the fleet.
	w.order = w.order[:0]
	w.points, w.instructions = 0, 0
	for i := 0; i < w.p.jobsPerPool; i++ {
		for j, ps := range w.pool {
			w.order = append(w.order, j)
			for _, r := range ps.results {
				w.points++
				w.instructions += r.Instructions
			}
		}
	}
	return nil
}

// jobRecord is one job as a client saw it.
type jobRecord struct {
	id                              string
	latency, submit, stream, result time.Duration
	cold, ok                        bool
	points                          []time.Duration // streamed point times of a cold job
}

// fleetDetail is what a traced fleet pass adds for the per-layer metrics.
type fleetDetail struct {
	records         []jobRecord
	stats           api.StatsResponse
	queueWait, exec []time.Duration
	routerSelfMS    float64
}

// pass runs the jobs on a fresh fleet, so every pass starts from empty
// result stores.
func (w *fleetWorkload) pass(tr *tracer) (passStats, error) {
	cl, err := cluster.Start(w.p.fleetBackends, cluster.Options{Service: service.Config{Parallelism: 1}})
	if err != nil {
		return passStats{}, err
	}
	defer cl.Close()
	return w.runJobs(cl, tr)
}

// runJobs drives one pass's jobs through cl with closed-loop clients and
// counts each job whose result is missing or differs from the expected
// bytes as failed.
func (w *fleetWorkload) runJobs(cl *cluster.Cluster, tr *tracer) (passStats, error) {
	w.rng.Shuffle(len(w.order), func(i, j int) { w.order[i], w.order[j] = w.order[j], w.order[i] })
	ctx := context.Background()
	c := cl.Client()
	records := make([]jobRecord, len(w.order))
	var next atomic.Int64

	var ps passStats
	prog0 := progcache.GetStats()
	mt := startMeter()
	top := tr.begin("pass", openSpan{}, true)
	var wg sync.WaitGroup
	for i := 0; i < w.p.fleetClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(w.order) {
					return
				}
				records[k] = w.job(ctx, c, tr, top, &w.pool[w.order[k]])
			}
		}()
	}
	wg.Wait()
	top.end()
	mt.stop(&ps)
	ps.progMemHits = progcache.GetStats().MemHits - prog0.MemHits

	stats, err := c.RouterStats(ctx)
	if err != nil {
		return passStats{}, fmt.Errorf("router stats: %w", err)
	}
	ps.attempted = len(records)
	for _, r := range records {
		ps.jobs = append(ps.jobs, jobSample{latency: r.latency, cold: r.cold})
		ps.pointElapsed = append(ps.pointElapsed, r.points...)
		if !r.ok {
			ps.failed++
		}
	}
	// Every distinct spec executes once; more executions are recomputes
	// the dedup, store and replication layers should have absorbed.
	ps.failed += int(recomputes(stats, len(w.pool)))
	ps.points, ps.instructions = w.points, w.instructions
	ps.speedup, ps.coverage = w.speedup, w.coverage
	if tr != nil {
		if ps.fleet, err = w.detail(ctx, cl, records, stats); err != nil {
			return passStats{}, err
		}
	}
	return ps, nil
}

// recomputes is the fleet's executed jobs beyond the distinct specs.
func recomputes(stats api.StatsResponse, distinct int) uint64 {
	var executed uint64
	for _, b := range stats.Backends {
		if b.Service != nil {
			executed += b.Service.Executed
		}
	}
	if executed <= uint64(distinct) {
		return 0
	}
	return executed - uint64(distinct)
}

// job submits one spec, streams its events to the terminal one and fetches
// the result, checking it byte for byte against the expected bytes.
func (w *fleetWorkload) job(ctx context.Context, c *client.Client, tr *tracer, top openSpan, ps *poolSpec) (r jobRecord) {
	t0 := time.Now()
	js := tr.begin("client.job", top, true)
	defer func() {
		js.end()
		r.latency = time.Since(t0)
	}()

	s := tr.begin("client.submit", js, false)
	st, err := c.Submit(ctx, ps.spec)
	s.end()
	r.submit = time.Since(t0)
	if err != nil {
		return r
	}
	r.id, r.cold = st.ID, !st.Cached && !st.Deduped

	t1 := time.Now()
	s = tr.begin("client.stream", js, false)
	var final api.JobState
	err = c.Stream(ctx, st.ID, 0, func(e api.Event) {
		if e.State != "" {
			final = e.State
		} else if r.cold {
			r.points = append(r.points, time.Duration(e.ElapsedMS)*time.Millisecond)
		}
	})
	s.end()
	r.stream = time.Since(t1)
	if err != nil || final != api.StateDone {
		return r
	}

	t2 := time.Now()
	s = tr.begin("client.result", js, false)
	got, err := c.Result(ctx, st.ID)
	s.end()
	r.result = time.Since(t2)
	r.ok = err == nil && bytes.Equal(got, ps.want)
	return r
}

// detail gathers, after a traced pass and outside its timing, the job
// timestamps the service recorded and the router's own cost on a cached
// submit: the same submission through the router and directly to the
// owning backend, alternating which goes first.
func (w *fleetWorkload) detail(ctx context.Context, cl *cluster.Cluster, records []jobRecord, stats api.StatsResponse) (*fleetDetail, error) {
	d := &fleetDetail{records: records, stats: stats}
	c := cl.Client()
	for _, r := range records {
		if !r.cold || !r.ok {
			continue
		}
		st, err := c.Status(ctx, r.id)
		if err != nil {
			return nil, fmt.Errorf("status %s: %w", r.id, err)
		}
		d.queueWait = append(d.queueWait, st.StartedAt.Sub(st.SubmittedAt))
		d.exec = append(d.exec, st.FinishedAt.Sub(st.StartedAt))
	}

	owners := map[string]*client.Client{}
	for i, b := range cl.Backends {
		owners[b.Name] = cl.BackendClient(i)
	}
	var viaRouter, direct []float64
	sampled := map[int]bool{}
	for k, idx := range w.order {
		if len(sampled) == w.p.routerSamples {
			break
		}
		r := records[k]
		name, _, _ := strings.Cut(r.id, ".")
		owner, ok := owners[name]
		if sampled[idx] || !r.ok || !ok {
			continue
		}
		sampled[idx] = true
		spec := w.pool[idx].spec
		timed := func(cc *client.Client) (float64, error) {
			t0 := time.Now()
			_, err := cc.Submit(ctx, spec)
			return float64(time.Since(t0)) / float64(time.Millisecond), err
		}
		order := []*client.Client{c, owner}
		if len(sampled)%2 == 0 {
			order[0], order[1] = owner, c
		}
		for _, cc := range order {
			ms, err := timed(cc)
			if err != nil {
				return nil, fmt.Errorf("cached submit: %w", err)
			}
			if cc == c {
				viaRouter = append(viaRouter, ms)
			} else {
				direct = append(direct, ms)
			}
		}
	}
	d.routerSelfMS = percentile(viaRouter, 0.5) - percentile(direct, 0.5)
	return d, nil
}

func (w *fleetWorkload) layers(traced passStats, m metrics) (attempted, failed int, err error) {
	d := traced.fleet
	var submitCached, submitCold, stream, result []time.Duration
	executed := map[int]bool{}
	for k, r := range d.records {
		if !r.ok {
			continue
		}
		if r.cold {
			submitCold = append(submitCold, r.submit)
			executed[w.order[k]] = true
		} else {
			submitCached = append(submitCached, r.submit)
		}
		stream = append(stream, r.stream)
		result = append(result, r.result)
	}
	p50 := func(ds []time.Duration) float64 { return percentile(durationsMS(ds), 0.5) }
	m.set("client.submit_ms.cached.p50", p50(submitCached), "ms")
	m.set("client.submit_ms.cold.p50", p50(submitCold), "ms")
	m.set("client.stream_ms.p50", p50(stream), "ms")
	m.set("client.result_ms.p50", p50(result), "ms")
	m.set("service.queue_wait_ms.p50", p50(d.queueWait), "ms")
	m.set("service.exec_ms.p50", p50(d.exec), "ms")

	// Submitted counts job records, which deduplicated submissions do not
	// create.
	var submitted, hits, exe, storeHits, storePuts uint64
	for _, b := range d.stats.Backends {
		if s := b.Service; s != nil {
			submitted += s.Submitted + s.Deduped
			hits += s.Cached + s.Deduped
			exe += s.Executed
			storeHits += s.StoreHits
			storePuts += s.StorePuts
		}
	}
	m.set("service.hit_ratio", float64(hits)/float64(max(submitted, 1)), "frac")
	m.set("service.executed", float64(exe), "count")
	m.set("service.store_hits", float64(storeHits), "count")
	m.set("service.store_puts", float64(storePuts), "count")
	m.set("service.recomputes", float64(recomputes(d.stats, len(w.pool))), "count")
	m.set("router.self_ms.p50", d.routerSelfMS, "ms")
	m.set("router.replica_puts", float64(d.stats.ReplicaPuts), "count")
	m.set("router.read_repairs", float64(d.stats.ReadRepairs), "count")

	// Each backend runs one simulation at a time.
	busy := sumDurations(traced.pointElapsed)
	m.set("harness.busy_frac", busy.Seconds()/(traced.wall.Seconds()*float64(w.p.fleetBackends)), "frac")
	m.set("harness.slowest_point_s", maxDuration(traced.pointElapsed).Seconds(), "s")
	m.set("sim.run_s", busy.Seconds(), "s")
	m.set("progcache.mem_hits", float64(traced.progMemHits), "count")

	// Simulated counts of the specs the pass executed, and the per-kernel
	// IMP speedup over the pool.
	counts := make([]float64, len(simCountNames))
	for idx := range executed {
		for _, res := range w.pool[idx].results {
			addSimCounts(counts, res.Metrics)
		}
	}
	for j, name := range simCountNames {
		m.set("sim."+name, counts[j], "count")
	}
	ratios := map[string][]float64{}
	for _, ps := range w.pool {
		wl := ps.spec.Sweep[0].Workload
		ratios[wl] = append(ratios[wl], float64(ps.results[0].Cycles)/float64(ps.results[1].Cycles))
	}
	for wl, rs := range ratios {
		m.set("sim.imp_speedup."+wl, geomean(rs), "x")
	}
	return 0, 0, nil
}
