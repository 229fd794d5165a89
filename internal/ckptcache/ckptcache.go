// Package ckptcache is the process-wide internal/blobstore instance that
// holds simulator checkpoints: its memory layer serves a sweep's leaves
// forking from a prefix their group just simulated, and its disk layer
// lets repeated sweeps across jobs and processes reuse prefixes.
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
// blob that passes it but fails to restore is Evicted by the caller
// (counted in Stats.Corrupt too) and the point cold-starts, so corruption
// never produces a wrong result. Blobs are shared: callers must treat them
// as read-only.
package ckptcache

import "github.com/impsim/imp/internal/blobstore"

// EnvDir is the environment variable overriding the disk cache directory.
const EnvDir = "IMP_CKPT_CACHE"

// Memory-layer bounds. Snapshots are a few MB at test scale and tens of MB
// for full 64-core systems, so the byte cap is what usually binds; the
// entry cap keeps pathological tiny-blob floods bounded too.
const maxMemEntries, maxMemBytes = 64, 512 << 20

var cache = blobstore.New("", ".impsnap", maxMemEntries, maxMemBytes)

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
