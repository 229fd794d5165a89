// Package progcache builds workload trace programs through a two-level
// cache: an in-process memo of decoded programs (experiments share one
// build across all their configurations and parallel workers) and an
// on-disk internal/blobstore of binary-encoded traces (builds survive
// across processes, so repeated benchmark and experiment runs skip trace
// generation entirely).
//
// The disk location is chosen as follows:
//
//   - IMP_TRACE_CACHE=<dir> stores traces under <dir>;
//   - IMP_TRACE_CACHE=off (or "0") disables the disk layer;
//   - unset: <user cache dir>/impsim/traces, falling back to
//     <temp dir>/impsim-traces when no user cache dir exists.
//
// Cache keys cover the workload name, every Options field and the trace
// format + generator versions, so a format or generator bump invalidates
// old entries implicitly. The blob store writes atomically and evicts an
// entry that fails its envelope check (or, inside it, the trace's own
// CRC), counting it in Stats.Corrupt; the trace is then rebuilt, so
// corruption never fails an experiment. Cached programs are shared:
// callers must treat them as read-only, as with any built Program.
package progcache

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/impsim/imp/internal/blobstore"
	"github.com/impsim/imp/internal/trace"
	"github.com/impsim/imp/internal/workload"
)

// EnvDir is the environment variable overriding the disk cache directory.
const EnvDir = "IMP_TRACE_CACHE"

// maxMemEntries bounds the in-process program cache. Programs are large
// (tens of MB at full scale); 32 comfortably covers a full experiment
// sweep (8 workloads × plain/software-prefetch) with headroom.
const maxMemEntries = 32

// Stats counts cache outcomes since process start (or the last Flush).
//
// DiskSkips counts operations that ran with the disk layer disabled or
// unusable. Corrupt counts on-disk entries that failed their integrity
// check (CRC mismatch, truncation, undecodable content) and were evicted
// and rebuilt rather than failing the experiment.
type Stats struct {
	MemHits, DiskHits, Builds, DiskSkips, Corrupt uint64
}

type entry struct {
	once    sync.Once
	p       *trace.Program
	err     error
	done    atomic.Bool // read by evictLocked while the build runs
	lastUse uint64
}

// disk persists encoded traces. It has no memory layer: the memo below
// holds decoded programs, and a second in-memory copy of their encoded
// bytes would only cost resident memory.
var disk = blobstore.New("", ".imptrace", 0, 0)

var (
	mu              sync.Mutex
	entries         = map[string]*entry{}
	useTick         uint64
	memHits, builds atomic.Uint64
)

// Get returns the trace program for (name, opt), building it at most once
// per process and persisting builds to the disk cache.
func Get(name string, opt workload.Options) (*trace.Program, error) {
	opt = opt.WithDefaults()
	// The key covers the workload, every Options field, and the trace
	// format and generator versions.
	key := blobstore.Key(fmt.Sprintf(
		"imptrace|fmt%d|gen%d|%s|cores%d|scale%.17g|sw%v|dist%d|seed%d",
		trace.FormatVersion, workload.GenVersion,
		name, opt.Cores, opt.Scale, opt.SoftwarePrefetch, opt.SWDistance, opt.Seed), nil)

	mu.Lock()
	e, ok := entries[key]
	if !ok {
		e = &entry{}
		entries[key] = e
		evictLocked()
	} else {
		memHits.Add(1)
	}
	useTick++
	e.lastUse = useTick
	mu.Unlock()

	e.once.Do(func() {
		defer func() {
			// A panicking generator must be recorded as the entry's error:
			// sync.Once would otherwise mark the entry complete with
			// p=nil, err=nil and every caller sharing it would nil-deref.
			if rec := recover(); rec != nil {
				e.err = fmt.Errorf("building %s trace: panic: %v", name, rec)
			}
			e.done.Store(true)
		}()
		e.p, e.err = load(name, opt, key)
	})
	return e.p, e.err
}

// load resolves one cache miss: disk first, then a real build (persisted
// best-effort).
func load(name string, opt workload.Options, key string) (*trace.Program, error) {
	dir := blobstore.ResolveDir("", EnvDir, "traces")
	store := disk.At(dir)
	if data, ok := store.Get(key); ok {
		if p, err := trace.DecodeProgram(data); err == nil {
			return p, nil
		}
		store.Evict(key) // the envelope held, but not a decodable trace
	}
	p, err := workload.Build(name, opt)
	if err != nil {
		return nil, err
	}
	builds.Add(1)
	if dir != "" {
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err == nil {
			store.Put(key, buf.Bytes())
		}
	}
	return p, nil
}

// evictLocked drops least-recently-used completed entries beyond the cap.
// In-flight builds are never evicted. Callers hold mu.
func evictLocked() {
	for len(entries) > maxMemEntries {
		victim := ""
		for k, e := range entries {
			if e.done.Load() && (victim == "" || e.lastUse < entries[victim].lastUse) {
				victim = k
			}
		}
		if victim == "" {
			return // everything in flight; stay over cap briefly
		}
		delete(entries, victim)
	}
}

// GetStats returns a snapshot of the cache counters.
func GetStats() Stats {
	ds := disk.Stats()
	return Stats{memHits.Load(), ds.DiskHits, builds.Load(), ds.DiskSkips, ds.Corrupt}
}

// Flush empties the in-process cache and resets counters (the disk layer
// is untouched). Intended for tests.
func Flush() {
	mu.Lock()
	defer mu.Unlock()
	entries, useTick = map[string]*entry{}, 0
	memHits.Store(0)
	builds.Store(0)
	disk.Flush()
}
