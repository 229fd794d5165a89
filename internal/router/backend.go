package router

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/impsim/imp"
	"github.com/impsim/imp/api"
)

// backend is one impserve instance behind the router. Its name ("b0",
// "b1", ...) is the stable half of every composite job id the router hands
// out, so a status or cancel for that id can be routed statelessly.
type backend struct {
	name string
	base string // URL, no trailing slash
	gate imp.Gate

	mu        sync.Mutex
	healthy   bool
	lastErr   string
	lastProbe time.Time

	inflight    atomic.Int64
	submits     atomic.Uint64 // jobs this backend accepted
	proxied     atomic.Uint64 // non-submit requests proxied to it
	errors      atomic.Uint64 // transport-level failures talking to it
	evictions   atomic.Uint64 // healthy -> unhealthy transitions
	readmits    atomic.Uint64 // unhealthy -> healthy transitions
	replicaPuts atomic.Uint64 // replica copies written into its store
}

// isHealthy reports the backend's current ring membership.
func (b *backend) isHealthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

// markDown evicts the backend from the ring with the failure that caused
// it; the health loop readmits it once /healthz answers again.
func (b *backend) markDown(err error) {
	b.errors.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastErr = err.Error()
	if b.healthy {
		b.healthy = false
		b.evictions.Add(1)
	}
}

// markUp readmits the backend after a successful health probe.
func (b *backend) markUp() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.healthy {
		b.healthy = true
		b.lastErr = ""
		b.readmits.Add(1)
	}
}

// errSaturated reports a backend whose in-flight slots are all held (by
// long-lived event streams, typically). It is not a health signal — the
// backend is alive, just full — so callers rehash or answer 503 without
// evicting it from the ring.
var errSaturated = errors.New("router: backend at in-flight capacity")

// acquire takes one of the backend's bounded in-flight slots, waiting at
// most wait (<=0: as long as ctx allows); a full backend yields
// errSaturated rather than blocking a submit forever behind open streams.
// The returned release must be called exactly once when the proxied
// request — including a long-lived event stream — has fully finished.
func (b *backend) acquire(ctx context.Context, wait time.Duration) (release func(), err error) {
	actx := ctx
	if wait > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, wait)
		defer cancel()
	}
	if err := b.gate.Acquire(actx); err != nil {
		if ctx.Err() == nil {
			return nil, errSaturated // our wait expired, not the caller's
		}
		return nil, err
	}
	b.inflight.Add(1)
	return func() {
		b.inflight.Add(-1)
		b.gate.Release()
	}, nil
}

// probe is one active health check: GET /healthz with a short deadline.
// The attempt time is recorded up front, before the request is even built:
// "when did the router last *try* to probe this backend" is the operator
// question last_probe answers, and an early exit (bad URL, dead transport)
// must not leave the timestamp frozen at the last success.
func (b *backend) probe(ctx context.Context, hc *http.Client, timeout time.Duration) {
	b.mu.Lock()
	b.lastProbe = time.Now()
	b.mu.Unlock()
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.base+"/healthz", nil)
	if err != nil {
		b.markDown(err)
		return
	}
	resp, err := hc.Do(req)
	if err != nil {
		b.markDown(err)
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.markDown(fmt.Errorf("healthz: %s", resp.Status))
		return
	}
	b.markUp()
}

func (b *backend) stats() api.BackendStats {
	b.mu.Lock()
	healthy, lastErr, lastProbe := b.healthy, b.lastErr, b.lastProbe
	b.mu.Unlock()
	probed := ""
	if !lastProbe.IsZero() {
		probed = lastProbe.UTC().Format(time.RFC3339Nano)
	}
	return api.BackendStats{
		Name: b.name, URL: b.base,
		Healthy: healthy, LastErr: lastErr, LastProbe: probed,
		Submits: b.submits.Load(), Proxied: b.proxied.Load(),
		Errors: b.errors.Load(), Evicted: b.evictions.Load(), Readmits: b.readmits.Load(),
		InFlight: b.inflight.Load(), ReplicaPuts: b.replicaPuts.Load(),
	}
}
