// Package router implements improuter, the sharding front-end for a fleet
// of impserve backends. It speaks the same api/ wire protocol as a single
// instance — client/ works unchanged against either — and places each job
// by consistent-hashing its content-addressed result key (internal/jobkey,
// the same derivation the backends key their stores with) onto a ring of
// backends. Identical submissions therefore always land on the backend
// whose result store already holds (or is computing) that key, preserving
// the single-instance dedup and cache-hit guarantees across the fleet.
//
// Reliability model:
//
//   - Active health checks (GET /healthz per backend on an interval) evict
//     dead backends from routing and readmit them on recovery; transport
//     failures during proxying evict passively and immediately.
//   - Submissions retry with rehash: if the owning backend is down or
//     refuses (502/503/504), the next distinct backend in ring-walk order
//     is tried, excluding every node that already failed, up to a bounded
//     attempt budget.
//   - Per-backend in-flight caps (the imp.Gate seam the backends already
//     use for simulation load) bound concurrently proxied requests so one
//     slow backend cannot absorb every router connection.
//
// Job ids are rewritten on the way out: backend b2's "j-000017" becomes
// "b2.j-000017", so status/result/events/cancel route statelessly back to
// the owning backend with no id table in the router.
package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/impsim/imp"
	"github.com/impsim/imp/api"
	"github.com/impsim/imp/internal/admission"
	"github.com/impsim/imp/internal/httpx"
	"github.com/impsim/imp/internal/jobkey"
	"github.com/impsim/imp/internal/metrics"
)

// Config parameterizes a Router. Zero values select the defaults, except
// Retries, whose zero value is meaningful (see below): for every other
// numeric field an explicit zero is nonsense (a ring needs at least one
// virtual node, a result at least one copy), so zero can safely mean
// "default"; flag front-ends like cmd/improuter reject explicit nonsense
// loudly instead of letting it silently become the default.
type Config struct {
	// Backends lists the initial impserve base URLs ("http://host:port").
	// Backend i is named "b<i>" in composite job ids; membership can
	// change live afterwards via AddBackend/RemoveBackend (the admin
	// /v1/backends surface), with later joiners named in arrival order.
	Backends []string
	// Vnodes is the virtual-node count per backend on the hash ring
	// (default 64); more virtual nodes smooth key distribution.
	Vnodes int
	// Replicas is the number of backends holding a copy of each finished
	// result: the ring owner plus Replicas-1 healthy successors in walk
	// order (default 2). After a job completes on its owner the router
	// fans the result out asynchronously, and on submit a cold owner is
	// read-repaired from its successors before work is forwarded — so a
	// dead or restarted owner's results are served from replicas instead
	// of recomputed. 1 disables replication and read-repair. Replicas is
	// the configured target; the factor in effect at any moment is
	// min(Replicas, current member count), a property of the live topology
	// snapshot — a fleet that shrinks below the target degrades to the
	// copies it can hold and recovers the full target when members rejoin.
	Replicas int
	// ReplicaPoll is how often the replication watcher polls a submitted
	// job for completion before fanning its result out (default 250ms).
	ReplicaPoll time.Duration
	// Inflight caps concurrently proxied requests per backend (default 64),
	// enforced with an imp.Gate per backend. Event streams hold a slot for
	// their lifetime.
	Inflight int
	// Retries bounds additional backends tried after the owner fails.
	// 0 — the zero value — disables retries (the submit fails if the owner
	// does); any negative value, canonically RetriesAll, tries every
	// remaining candidate in walk order. 0 and "unset" must not be
	// conflated here: "-retries 0" is an explicit operator request for
	// no rehash retry, so the all-remaining default hides behind the -1
	// sentinel instead of behind 0.
	Retries int
	// HealthInterval is the active probe period (default 2s);
	// HealthTimeout bounds one probe (default 1s).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// AdminToken, when set, gates the membership surface (/v1/backends):
	// requests must carry "Authorization: Bearer <token>". Empty leaves
	// the surface open — acceptable only when the router's listener is
	// itself unreachable from untrusted clients.
	AdminToken string
	// QuotaRate grants each tenant (the api.TenantHeader request header)
	// this many submissions per second at the router's front door, enforced
	// with a token bucket before any backend is touched; QuotaBurst is the
	// bucket capacity (default max(QuotaRate, 1)). QuotaRate <= 0 disables
	// router-level quotas. Backends can layer their own quota underneath
	// (service.Config.QuotaRate) — the router passes their 429s through.
	QuotaRate  float64
	QuotaBurst float64
	// Client issues backend requests; nil gets a client with no overall
	// timeout (event streams are long-lived).
	Client *http.Client
}

// RetriesAll is the canonical Config.Retries sentinel for "try every
// remaining backend" (any negative value behaves the same).
const RetriesAll = -1

func (c Config) withDefaults() Config {
	if c.Vnodes <= 0 {
		c.Vnodes = 64
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	// Replicas is deliberately NOT clamped to len(c.Backends) here: the
	// startup backend list is just the initial membership, and a clamp
	// taken now would go stale on the first join or leave. The effective
	// factor is computed per topology snapshot (newTopology).
	if c.ReplicaPoll <= 0 {
		c.ReplicaPoll = 250 * time.Millisecond
	}
	if c.Inflight <= 0 {
		c.Inflight = 64
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Router fronts a fleet of impserve backends behind one api/ endpoint.
type Router struct {
	cfg     Config
	hc      *http.Client
	limiter *admission.Limiter
	reg     *metrics.Registry

	// Registry-native instruments (single source of truth for their
	// numbers; /v1/stats reads them back).
	mQuotaRej  *metrics.CounterVec
	mSubmitDur *metrics.Histogram

	// topo is the current membership snapshot. Reads are lock-free and
	// always see one consistent ring+backends+replicas view; writes are
	// copy-on-write under memberMu (see membership.go). nextName numbers
	// backends across the router's lifetime — a joiner never reuses a
	// departed member's name, so stale composite job ids can never be
	// misrouted to an unrelated new backend.
	topo     atomic.Pointer[topology]
	memberMu sync.Mutex
	nextName int

	submitted atomic.Uint64
	rehashes  atomic.Uint64
	failed    atomic.Uint64

	joins       atomic.Uint64
	leaves      atomic.Uint64
	handoffKeys atomic.Uint64

	replicaPuts   atomic.Uint64
	replicaErrors atomic.Uint64
	readRepairs   atomic.Uint64
	repairMisses  atomic.Uint64

	// replMu guards the replication bookkeeping: replWatch is the set of
	// result keys with a live replication watcher (one watcher per key,
	// however many duplicate submissions arrive while it runs),
	// replConfirmed the keys verified fully replicated under the current
	// health picture (cleared on any health transition), and replClosed
	// stops new watchers once Close begins waiting for the old ones.
	replMu        sync.Mutex
	replWatch     map[string]bool
	replConfirmed map[string]bool
	replClosed    bool
	// healthEpoch advances on every healthy-set transition; confirmations
	// verified under an older epoch are discarded (see markConfirmed).
	healthEpoch atomic.Uint64

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

// normalizeBackendURL validates one backend base URL and strips its
// trailing slash — the normalized form is the backend's ring identity.
func normalizeBackendURL(base string) (string, error) {
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return "", fmt.Errorf("bad URL %q", base)
	}
	return strings.TrimRight(base, "/"), nil
}

// New builds a Router over cfg.Backends and starts its health loop; Close
// releases it. Backends start healthy — the first probe round corrects
// that within HealthInterval, and submit retries cover the gap.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: no backends configured")
	}
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg: cfg, hc: cfg.Client,
		limiter:       admission.New(cfg.QuotaRate, cfg.QuotaBurst),
		replWatch:     make(map[string]bool),
		replConfirmed: make(map[string]bool),
	}
	rt.initMetrics()
	backends := make([]*backend, 0, len(cfg.Backends))
	seen := make(map[string]int, len(cfg.Backends))
	for i, base := range cfg.Backends {
		addr, err := normalizeBackendURL(base)
		if err != nil {
			return nil, fmt.Errorf("router: backend %d: %w", i, err)
		}
		if j, dup := seen[addr]; dup {
			// Duplicates would stack identical virtual points (the ring
			// hashes by address) and split one backend's identity across
			// two names; reject rather than route ambiguously.
			return nil, fmt.Errorf("router: backend %d: %q duplicates backend %d", i, base, j)
		}
		seen[addr] = i
		backends = append(backends, rt.newBackend(addr))
	}
	rt.topo.Store(newTopology(1, backends, cfg.Vnodes, cfg.Replicas))
	ctx, cancel := context.WithCancel(context.Background())
	rt.baseCtx, rt.stop = ctx, cancel
	rt.wg.Add(1)
	go rt.healthLoop(ctx)
	return rt, nil
}

// newBackend allocates a ring member with the next lifetime-unique name.
// Callers hold memberMu or are inside New (no concurrent membership yet).
func (rt *Router) newBackend(addr string) *backend {
	b := &backend{
		name:    fmt.Sprintf("b%d", rt.nextName),
		base:    addr,
		gate:    imp.NewGate(rt.cfg.Inflight),
		healthy: true,
	}
	rt.nextName++
	return b
}

// initMetrics builds the router's Prometheus registry. Routing and
// replication counters already live on the Router as atomics, so they are
// exported through func collectors reading the live values; per-backend
// series are produced per scrape from the current topology snapshot (the
// label set follows ring membership). Quota rejections and the submit
// latency histogram are registry-native.
func (rt *Router) initMetrics() {
	r := metrics.New()
	rt.reg = r
	rt.mQuotaRej = r.CounterVec("imp_router_quota_rejections_total",
		"Submissions rejected at the router because the tenant's token bucket was empty (HTTP 429).", "tenant")
	rt.mSubmitDur = r.Histogram("imp_router_submit_seconds",
		"Submit latency through the router, including rehash retries.", nil)

	counter := func(name, help string, v *atomic.Uint64) {
		r.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	counter("imp_router_submitted_total", "Submissions accepted by some backend.", &rt.submitted)
	counter("imp_router_rehashes_total", "Submit retries that moved a submission off its ring owner.", &rt.rehashes)
	counter("imp_router_failed_total", "Submissions no backend would take.", &rt.failed)
	counter("imp_router_joins_total", "Backends joined via the admin surface.", &rt.joins)
	counter("imp_router_leaves_total", "Backends removed via the admin surface.", &rt.leaves)
	counter("imp_router_handoff_keys_total", "Results bulk-copied between backends during membership changes.", &rt.handoffKeys)
	counter("imp_router_replica_puts_total", "Result copies written to ring successors.", &rt.replicaPuts)
	counter("imp_router_replica_errors_total", "Replication attempts that failed against some backend.", &rt.replicaErrors)
	counter("imp_router_read_repairs_total", "Cold owners refilled from a successor's replica before forwarding.", &rt.readRepairs)
	counter("imp_router_repair_misses_total", "Submissions where the owner and every probed successor missed.", &rt.repairMisses)

	r.GaugeFunc("imp_router_backends", "Current ring member count.",
		func() float64 { return float64(len(rt.topo.Load().backends)) })
	r.GaugeFunc("imp_router_healthy_backends", "Ring members currently passing health probes.",
		func() float64 { return float64(rt.topo.Load().healthyCount()) })
	r.GaugeFunc("imp_router_topology_version", "Version of the live membership snapshot.",
		func() float64 { return float64(rt.topo.Load().version) })
	r.GaugeFunc("imp_router_effective_replicas", "Replication factor the live topology sustains.",
		func() float64 { return float64(rt.topo.Load().replicas) })

	perBackend := func(name, help string, typ metrics.Type, v func(*backend) float64) {
		r.SampleFunc(name, help, typ, []string{"backend"}, func() []metrics.Sample {
			members := rt.topo.Load().backends
			out := make([]metrics.Sample, 0, len(members))
			for _, b := range members {
				out = append(out, metrics.Sample{Labels: []string{b.name}, Value: v(b)})
			}
			return out
		})
	}
	perBackend("imp_router_backend_healthy", "Backend health verdict (1 healthy, 0 evicted).",
		metrics.TypeGauge, func(b *backend) float64 {
			if b.isHealthy() {
				return 1
			}
			return 0
		})
	perBackend("imp_router_backend_inflight", "Requests currently proxied to the backend.",
		metrics.TypeGauge, func(b *backend) float64 { return float64(b.inflight.Load()) })
	perBackend("imp_router_backend_submits_total", "Jobs the backend accepted via the router.",
		metrics.TypeCounter, func(b *backend) float64 { return float64(b.submits.Load()) })
	perBackend("imp_router_backend_proxied_total", "Non-submit requests proxied to the backend.",
		metrics.TypeCounter, func(b *backend) float64 { return float64(b.proxied.Load()) })
	perBackend("imp_router_backend_errors_total", "Transport failures talking to the backend.",
		metrics.TypeCounter, func(b *backend) float64 { return float64(b.errors.Load()) })
	perBackend("imp_router_backend_evictions_total", "Healthy-to-unhealthy transitions.",
		metrics.TypeCounter, func(b *backend) float64 { return float64(b.evictions.Load()) })
	perBackend("imp_router_backend_replica_puts_total", "Replica copies written into the backend's store.",
		metrics.TypeCounter, func(b *backend) float64 { return float64(b.replicaPuts.Load()) })
}

// Metrics exposes the router's Prometheus registry (GET /metrics).
func (rt *Router) Metrics() *metrics.Registry { return rt.reg }

// Close stops the health loop and any in-flight replication watchers.
func (rt *Router) Close() {
	// Refuse new watchers before waiting: a submit handler still unwinding
	// during shutdown must not wg.Add concurrently with wg.Wait.
	rt.replMu.Lock()
	rt.replClosed = true
	rt.replMu.Unlock()
	rt.stop()
	rt.wg.Wait()
}

// healthLoop probes every current ring member each interval, evicting and
// readmitting members as /healthz answers change. A change in the healthy
// set also wipes the confirmed-replicated key set: a readmitted backend
// may have restarted cold, so previously "fully replicated" keys must be
// re-verified by their next watcher. Membership is re-read from the
// topology snapshot every round, so joiners are probed from the next tick
// and departed members stop being probed; health state is tracked per
// backend identity, not per list position (positions shift as the fleet
// scales). Membership changes themselves invalidate the confirmed set in
// AddBackend/RemoveBackend, so only genuine health transitions do it here.
func (rt *Router) healthLoop(ctx context.Context) {
	defer rt.wg.Done()
	tick := time.NewTicker(rt.cfg.HealthInterval)
	defer tick.Stop()
	prev := make(map[*backend]bool)
	for _, b := range rt.topo.Load().backends {
		prev[b] = b.isHealthy()
	}
	for {
		members := rt.topo.Load().backends
		var wg sync.WaitGroup
		for _, b := range members {
			wg.Add(1)
			go func(b *backend) {
				defer wg.Done()
				b.probe(ctx, rt.hc, rt.cfg.HealthTimeout)
			}(b)
		}
		wg.Wait()
		changed := false
		next := make(map[*backend]bool, len(members))
		for _, b := range members {
			h := b.isHealthy()
			next[b] = h
			if ph, known := prev[b]; known && ph != h {
				changed = true
			}
		}
		prev = next
		if changed {
			rt.invalidateConfirmed()
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// Handler returns the router's HTTP API — the same surface a single
// impserve exposes, plus aggregation on /v1/stats.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", rt.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJob(http.MethodGet, "", true))
	mux.HandleFunc("GET /v1/jobs/{id}/result", rt.handleJob(http.MethodGet, "/result", false))
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", rt.handleJob(http.MethodPost, "/cancel", true))
	mux.HandleFunc("GET /v1/jobs/{id}/events", rt.handleEvents)
	mux.HandleFunc("GET /v1/workloads", rt.handlePassthrough("/v1/workloads"))
	mux.HandleFunc("GET /v1/experiments", rt.handlePassthrough("/v1/experiments"))
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.Handle("GET /metrics", rt.reg.Handler())
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	// Membership admin surface (membership.go); gated by Config.AdminToken.
	mux.HandleFunc("GET /v1/backends", rt.requireAdmin(rt.handleBackendList))
	mux.HandleFunc("POST /v1/backends", rt.requireAdmin(rt.handleBackendJoin))
	mux.HandleFunc("DELETE /v1/backends/{name}", rt.requireAdmin(rt.handleBackendLeave))
	return mux
}

// maxSpecBytes mirrors the backend's submit body bound.
const maxSpecBytes = 1 << 20

// DecodeSpec parses and validates a submit body exactly as handleSubmit
// does, returning the normalized spec's result key. Exported for the fuzz
// target: arbitrary bytes must either fail here or key deterministically.
func DecodeSpec(body []byte) (api.JobSpec, string, error) {
	var spec api.JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return api.JobSpec{}, "", fmt.Errorf("decoding job spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return api.JobSpec{}, "", err
	}
	key, err := jobkey.ResultKey(spec)
	if err != nil {
		return api.JobSpec{}, "", err
	}
	return spec, key, nil
}

// handleSubmit keys the spec, walks the ring from its owner, and forwards
// the original body to the first candidate that takes it. Transport
// failures evict the backend and rehash to the next distinct node;
// refusals (502/503/504) rehash without evicting. Every other backend
// answer — success, a 4xx the client must see, or a 429 admission
// rejection (backpressure must reach the client, not trigger a rehash
// storm) — passes through with the job id rewritten.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { rt.mSubmitDur.Observe(time.Since(start).Seconds()) }()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading job spec: %w", err))
		return
	}
	_, key, err := DecodeSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Front-door admission: an over-quota tenant is answered here, before
	// any ring walk or backend round trip spends fleet capacity on it.
	tenant := r.Header.Get(api.TenantHeader)
	if ok, retryAfter := rt.limiter.Allow(tenant); !ok {
		name := tenant
		if name == "" {
			name = admission.DefaultTenant
		}
		rt.mQuotaRej.With(name).Inc()
		wire := api.Errorf(api.CodeOverQuota, "router: tenant %q over submission quota", name)
		wire.RetryAfter = retryAfter
		writeError(w, http.StatusTooManyRequests, wire)
		return
	}

	// One topology snapshot serves the whole submission: candidate order,
	// read-repair and replication scheduling all see the same membership,
	// even if a join or leave publishes mid-request.
	topo := rt.topo.Load()
	candidates := topo.candidates(key)
	// Before forwarding, make sure the backend about to receive this key
	// holds its result if any replica does: a cold owner (restarted, or
	// readmitted after its keys were served elsewhere) answers from its
	// refilled store instead of recomputing.
	rt.readRepair(r.Context(), topo, key, candidates)
	// Retries 0 means exactly one attempt (the owner); negative means
	// every candidate. The budget is computed against the live candidate
	// set, not the startup backend count — membership is dynamic now.
	budget := rt.cfg.Retries + 1
	if rt.cfg.Retries < 0 {
		budget = len(candidates)
	}
	var lastErr error
	for attempt, b := range candidates {
		if attempt >= budget {
			break
		}
		if attempt > 0 {
			rt.rehashes.Add(1)
		}
		var hdr http.Header
		if tenant != "" {
			// Relay the tenant so backend-level quotas and metrics see the
			// same identity the router admitted.
			hdr = http.Header{api.TenantHeader: []string{tenant}}
		}
		resp, err := rt.forward(r.Context(), b, http.MethodPost, "/v1/jobs", "", hdr, body)
		if err != nil {
			if clientGone(r) {
				return // the submitter went away, not the backend
			}
			if !errors.Is(err, errSaturated) {
				b.markDown(err) // saturation is load, not death — rehash only
			}
			lastErr = fmt.Errorf("backend %s: %w", b.name, err)
			continue
		}
		if retryableStatus(resp.StatusCode) {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			lastErr = fmt.Errorf("backend %s: %s: %s", b.name, resp.Status, bytes.TrimSpace(msg))
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			copyResponse(w, resp)
			return
		}
		var st api.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			writeError(w, http.StatusBadGateway, fmt.Errorf("backend %s: decoding status: %w", b.name, err))
			return
		}
		rt.scheduleReplication(topo, key, b, st)
		st.ID = b.name + "." + st.ID
		b.submits.Add(1)
		rt.submitted.Add(1)
		writeJSON(w, resp.StatusCode, st)
		return
	}
	rt.failed.Add(1)
	if lastErr == nil {
		lastErr = errors.New("no backend available")
	}
	writeError(w, http.StatusBadGateway, fmt.Errorf("router: submit failed after %d backend(s): %w", min(budget, len(candidates)), lastErr))
}

// retryableStatus marks backend answers that justify rehashing: the
// backend is up but refusing work (queue full, draining) or is itself a
// failing proxy. 4xx answers are the client's problem and pass through.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout
}

// clientGone reports whether a proxy failure was caused by the incoming
// request's own cancellation (client disconnect or timeout) rather than by
// the backend. Such failures must not evict the backend from the ring —
// one impatient client would otherwise cost every other client the key
// owner's warmed cache for a probe interval.
func clientGone(r *http.Request) bool {
	return r.Context().Err() != nil
}

// proxyFailure classifies a forward() error for a single-backend endpoint:
// only a genuine backend failure evicts (client disconnects and slot
// saturation do not), and saturation answers 503 rather than 502.
func proxyFailure(r *http.Request, b *backend, err error) (status int) {
	if errors.Is(err, errSaturated) {
		return http.StatusServiceUnavailable
	}
	if !clientGone(r) {
		b.markDown(err)
	}
	return http.StatusBadGateway
}

// forward issues one gated request to b. The in-flight slot is waited for
// at most HealthTimeout: a backend saturated with open streams yields
// errSaturated (rehash / 503 material) instead of absorbing the caller
// indefinitely — without that bound a full gate would make submits hang
// forever and the retry loop unreachable.
// hdr carries extra request headers to relay (the tenant header on
// submits); nil forwards none.
func (rt *Router) forward(ctx context.Context, b *backend, method, path, rawQuery string, hdr http.Header, body []byte) (*http.Response, error) {
	release, err := b.acquire(ctx, rt.cfg.HealthTimeout)
	if err != nil {
		return nil, err
	}
	u := b.base + path
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		release()
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		release()
		return nil, err
	}
	resp.Body = &releasingBody{ReadCloser: resp.Body, release: release}
	return resp, nil
}

// releasingBody frees the backend's in-flight slot when the proxied
// response body is closed, which for event streams is stream end.
type releasingBody struct {
	io.ReadCloser
	release func()
	once    sync.Once
}

func (b *releasingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.release)
	return err
}

// splitID resolves a composite job id ("b2.j-000017") to its backend in
// the current topology. Ids minted before a backend left resolve to
// nothing — the job died with its node; resubmitting rehashes the spec
// onto the new owner (whose store was handed the result, so a finished
// job's resubmission is answered cached, not recomputed).
func (rt *Router) splitID(composite string) (*backend, string, error) {
	name, id, ok := strings.Cut(composite, ".")
	if ok && id != "" {
		if b := rt.topo.Load().byName(name); b != nil {
			return b, id, nil
		}
	}
	return nil, "", fmt.Errorf("router: unknown job %q", composite)
}

// handleJob proxies one per-job endpoint to the owning backend. rewrite
// re-addresses the returned JobStatus id; result bytes pass through
// untouched (they are the content-addressed payload — byte identity with
// direct library output is the contract).
func (rt *Router) handleJob(method, suffix string, rewrite bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		b, id, err := rt.splitID(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		b.proxied.Add(1)
		resp, err := rt.forward(r.Context(), b, method, "/v1/jobs/"+url.PathEscape(id)+suffix, "", nil, nil)
		if err != nil {
			writeError(w, proxyFailure(r, b, err), fmt.Errorf("router: backend %s: %w", b.name, err))
			return
		}
		defer resp.Body.Close()
		if !rewrite || resp.StatusCode/100 != 2 {
			copyResponse(w, resp)
			return
		}
		var st api.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			writeError(w, http.StatusBadGateway, fmt.Errorf("router: backend %s: decoding status: %w", b.name, err))
			return
		}
		st.ID = b.name + "." + st.ID
		writeJSON(w, resp.StatusCode, st)
	}
}

// handleEvents relays the owning backend's NDJSON stream line by line,
// flushing per event and preserving ?from= resume. If the backend dies
// mid-stream the relay does not just drop the connection — it emits a
// synthetic terminal "failed" event so a streaming client observes a
// well-formed end instead of hanging or resyncing blind, then evicts the
// backend.
func (rt *Router) handleEvents(w http.ResponseWriter, r *http.Request) {
	b, id, err := rt.splitID(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	b.proxied.Add(1)
	resp, err := rt.forward(r.Context(), b, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/events", r.URL.RawQuery, nil, nil)
	if err != nil {
		writeError(w, proxyFailure(r, b, err), fmt.Errorf("router: backend %s: %w", b.name, err))
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		copyResponse(w, resp)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	lastSeq := -1
	terminal := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev api.Event
		if json.Unmarshal(line, &ev) == nil {
			lastSeq = ev.Seq
			terminal = terminal || ev.State.Terminal()
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if terminal || clientGone(r) {
		// Relayed to a clean terminal end, or the client went away (which
		// also surfaces here as a read error on the proxied request) — the
		// backend did nothing wrong either way.
		return
	}
	cause := sc.Err()
	if cause == nil {
		// Clean EOF without a terminal line. A healthy backend does end one
		// kind of stream this way: resuming a finished job with ?from= past
		// its last event yields zero lines (a single instance behaves
		// identically, so the router must too). A status probe tells that
		// apart from a backend that vanished mid-job; a probe that fails
		// because the *client* just went away proves nothing about the
		// backend, so it must not evict or fabricate a failure either.
		st, perr := rt.jobStatus(r.Context(), b, id)
		if perr == nil && st.State.Terminal() {
			return
		}
		if clientGone(r) {
			return
		}
		cause = io.ErrUnexpectedEOF
	}
	b.markDown(cause)
	synth := api.Event{
		Seq:   lastSeq + 1,
		State: api.StateFailed,
		Error: fmt.Sprintf("router: backend %s died mid-stream: %v; resubmit to rehash onto a healthy backend", b.name, cause),
	}
	if data, err := json.Marshal(synth); err == nil {
		w.Write(append(data, '\n'))
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// jobStatus fetches one job's status straight from its backend (raw id),
// bounded by the health timeout. Deliberately ungated, like a health
// probe: the caller already holds one of b's in-flight slots for the
// stream being diagnosed, and the probe must not queue behind it when
// Inflight is small.
func (rt *Router) jobStatus(ctx context.Context, b *backend, id string) (api.JobStatus, error) {
	sctx, cancel := context.WithTimeout(ctx, rt.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, b.base+"/v1/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return api.JobStatus{}, err
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return api.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return api.JobStatus{}, fmt.Errorf("status probe: %s", resp.Status)
	}
	var st api.JobStatus
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// handleList fans the listing out to every healthy backend and merges the
// rewritten statuses in submission-time order. A backend that cannot be
// read is named in an X-Improuter-Partial header (the body stays a plain
// JobStatus list for client compatibility) instead of its jobs silently
// "vanishing"; if nothing was reachable at all the listing fails loudly.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	var all []api.JobStatus
	var missing []string
	reached := 0
	for _, b := range rt.topo.Load().backends {
		if !b.isHealthy() {
			continue
		}
		resp, err := rt.forward(r.Context(), b, http.MethodGet, "/v1/jobs", "", nil, nil)
		if err != nil {
			if !clientGone(r) && !errors.Is(err, errSaturated) {
				b.markDown(err)
			}
			missing = append(missing, b.name)
			continue
		}
		var jobs []api.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&jobs)
		resp.Body.Close()
		if err != nil {
			missing = append(missing, b.name)
			continue
		}
		reached++
		for i := range jobs {
			jobs[i].ID = b.name + "." + jobs[i].ID
		}
		all = append(all, jobs...)
	}
	if reached == 0 && len(missing) > 0 {
		writeError(w, http.StatusBadGateway, fmt.Errorf("router: no backend listing reachable (tried %s)", strings.Join(missing, ", ")))
		return
	}
	if len(missing) > 0 {
		w.Header().Set("X-Improuter-Partial", strings.Join(missing, ","))
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].SubmittedAt.Equal(all[j].SubmittedAt) {
			return all[i].SubmittedAt.Before(all[j].SubmittedAt)
		}
		return all[i].ID < all[j].ID
	})
	if all == nil {
		all = []api.JobStatus{}
	}
	writeJSON(w, http.StatusOK, all)
}

// handlePassthrough proxies fleet-invariant endpoints (workload and
// experiment catalogs) to the first backend that answers.
func (rt *Router) handlePassthrough(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		for _, healthyOnly := range []bool{true, false} {
			for _, b := range rt.topo.Load().backends {
				if healthyOnly != b.isHealthy() {
					continue
				}
				resp, err := rt.forward(r.Context(), b, http.MethodGet, path, "", nil, nil)
				if err != nil {
					if !clientGone(r) && !errors.Is(err, errSaturated) {
						b.markDown(err)
					}
					continue
				}
				defer resp.Body.Close()
				copyResponse(w, resp)
				return
			}
		}
		writeError(w, http.StatusBadGateway, errors.New("router: no backend available"))
	}
}

// Stats aggregates router counters with each live backend's own service
// stats. The per-backend fetches are best-effort, parallel, and ungated
// like health probes — /v1/stats is exactly what an operator reads when
// backends are saturated, so it must not queue behind the saturation it
// is reporting.
func (rt *Router) Stats(ctx context.Context) api.StatsResponse {
	topo := rt.topo.Load()
	st := api.StatsResponse{
		BackendCount:      len(topo.backends),
		TopologyVersion:   topo.version,
		EffectiveReplicas: topo.replicas,
		Joins:             rt.joins.Load(),
		Leaves:            rt.leaves.Load(),
		HandoffKeys:       rt.handoffKeys.Load(),
		Submitted:         rt.submitted.Load(),
		Rehashes:          rt.rehashes.Load(),
		Failed:            rt.failed.Load(),
		QuotaRejections:   rt.mQuotaRej.Total(),
		ReplicaPuts:       rt.replicaPuts.Load(),
		ReplicaErrors:     rt.replicaErrors.Load(),
		ReadRepairs:       rt.readRepairs.Load(),
		RepairMisses:      rt.repairMisses.Load(),
		Backends:          make([]api.BackendStats, len(topo.backends)),
	}
	var wg sync.WaitGroup
	for i, b := range topo.backends {
		bs := b.stats()
		if !bs.Healthy {
			st.Backends[i] = bs
			continue
		}
		st.HealthyCount++
		wg.Add(1)
		go func(i int, b *backend, bs api.BackendStats) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, rt.cfg.HealthTimeout)
			defer cancel()
			if req, err := http.NewRequestWithContext(sctx, http.MethodGet, b.base+"/v1/stats", nil); err == nil {
				if resp, err := rt.hc.Do(req); err == nil {
					json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&bs.Service)
					resp.Body.Close()
				}
			}
			st.Backends[i] = bs
		}(i, b, bs)
	}
	wg.Wait()
	return st
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Stats(r.Context()))
}

// handleHealthz reports the router healthy while it can route anywhere.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	topo := rt.topo.Load()
	healthy := topo.healthyCount()
	if healthy == 0 {
		writeError(w, http.StatusServiceUnavailable, errors.New("router: no healthy backends"))
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "ok %d/%d backends\n", healthy, len(topo.backends))
}

// copyResponse passes a backend answer through verbatim. Retry-After must
// survive the relay: a backend 429 without its backoff hint would strip
// admission control of the half that tells clients what to do about it.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// writeJSON and writeError delegate to the shared envelope
// (internal/httpx) — the same bytes a backend would produce, so responses
// synthesized by the router are indistinguishable from relayed ones.
func writeJSON(w http.ResponseWriter, code int, v any) { httpx.WriteJSON(w, code, v) }

func writeError(w http.ResponseWriter, code int, err error) { httpx.WriteError(w, code, err) }
