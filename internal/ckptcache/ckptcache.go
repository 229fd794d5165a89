// Package ckptcache is the process-wide internal/blobstore instance that
// holds sweep checkpoints: each is a finished simulation's metrics (a
// sim.Metrics blob of a few hundred bytes), stored under the content
// address of the run. Its memory layer serves repeated points within a
// process, and its disk layer lets repeated sweeps across jobs and
// processes skip simulation.
//
// The disk location is chosen as follows:
//
//   - an explicit dir argument stores checkpoints under it;
//   - IMP_CKPT_CACHE=<dir> stores them under <dir>;
//   - IMP_CKPT_CACHE=off (or "0") disables the disk layer;
//   - unset: <user cache dir>/impsim/checkpoints, falling back to
//     <temp dir>/impsim-checkpoints when no user cache dir exists.
//
// Keys are content addresses derived by the caller (the imp package covers
// the trace identity, the effective simulated system, and the trace,
// generator and snapshot format versions), so a stale entry can only be a
// corrupted one. The store evicts files that fail its envelope check; a
// blob that passes it but does not decode as the keyed run's metrics is
// Evicted by the caller (counted in Stats.Corrupt too) and the point
// cold-starts, so corruption never produces a wrong result. Blobs are
// shared: callers must treat them as read-only.
package ckptcache

import "github.com/impsim/imp/internal/blobstore"

// EnvDir is the environment variable overriding the disk cache directory.
const EnvDir = "IMP_CKPT_CACHE"

// Ext is the file extension of checkpoints on disk.
const Ext = ".impmetrics"

// Memory-layer bounds. A metrics blob is a few hundred bytes even for
// 64-core systems, so the entry cap is what binds: 1024 entries hold every
// distinct point of all the paper's figures several times over, in well
// under the byte cap.
const maxMemEntries, maxMemBytes = 1024, 4 << 20

var cache = blobstore.New("", Ext, maxMemEntries, maxMemBytes)

// at is the process-wide cache persisting to dir ("" defers to
// IMP_CKPT_CACHE / the default).
func at(dir string) *blobstore.Store {
	return cache.At(blobstore.ResolveDir(dir, EnvDir, "checkpoints"))
}

// Get returns the checkpoint stored under key, if any.
func Get(key, dir string) ([]byte, bool) { return at(dir).Get(key) }

// Put publishes a checkpoint under key. The cache takes ownership of data.
func Put(key, dir string, data []byte) { at(dir).Put(key, data) }

// Evict drops a checkpoint that failed to restore from memory and disk.
func Evict(key, dir string) { at(dir).Evict(key) }

// GetStats returns a snapshot of the cache counters.
func GetStats() blobstore.Stats { return cache.Stats() }

// Flush empties the in-process cache and resets counters (the disk layer
// is untouched). Intended for tests and benchmarks.
func Flush() { cache.Flush() }
