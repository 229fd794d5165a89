// Package blobstore is the one content-addressed byte cache behind the
// trace cache (internal/progcache), the checkpoint cache
// (internal/ckptcache) and the experiment service's result store. A Store
// maps a Key to bytes through two layers:
//
//   - an in-process LRU capped by entries and by bytes, with O(1) eviction
//     (a container/list recency list indexed by a map). A lone entry larger
//     than the byte cap is kept: the cap bounds what the LRU retains, not
//     what a caller may publish. A zero entry cap turns the layer off;
//   - an optional directory holding one <key><ext> file per entry, written
//     through a temp file renamed into place, so concurrent processes never
//     observe a partial entry.
//
// Every file carries one envelope: an 8-byte magic, the payload length as
// a big-endian uint64, the payload, and the payload's CRC-32 (IEEE),
// big-endian. A file that fails that check is evicted on the spot and
// counted in Stats.Corrupt, so a poisoned entry cannot greet the next read
// or the next process. Transient read trouble (EIO, fd exhaustion, a
// directory where the file should be) is only a miss: deleting an intact
// file over a passing error would destroy a valid entry. Writes are
// best-effort; an unusable directory degrades the store to its memory
// layer and is counted in Stats.DiskSkips.
//
// Values are shared: callers must treat returned and handed-in byte slices
// as immutable. All methods are safe for concurrent use.
package blobstore

import (
	"cmp"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// KeyLen is the exact length of every key Key produces.
const KeyLen = 24

// Key derives a content address: the hex-encoded first KeyLen/2 bytes of
// SHA-256(prefix || body). Callers put every input the stored bytes depend
// on, format and generator versions included, into prefix and body, so a
// version bump invalidates stale entries implicitly.
func Key(prefix string, body []byte) string {
	sum := sha256.Sum256(append([]byte(prefix), body...))
	return hex.EncodeToString(sum[:KeyLen/2])
}

// ValidKey reports whether s is well-formed as a Key output: lowercase hex
// of exactly KeyLen characters. Callers check it before a caller-supplied
// key (the service's PUT/GET /v1/results/{key}) reaches a store, where it
// becomes a file name.
func ValidKey(s string) bool {
	return len(s) == KeyLen && strings.Trim(s, "0123456789abcdef") == ""
}

// ResolveDir picks a cache directory: override if set, else the
// environment variable env. Unset, it is <user cache dir>/impsim/<name>,
// or <temp dir>/impsim-<name> when there is no user cache dir. "off",
// "OFF", "0", "false" and "no" turn the disk layer off, which ResolveDir
// reports as "".
func ResolveDir(override, env, name string) string {
	switch dir := cmp.Or(override, os.Getenv(env)); dir {
	case "off", "OFF", "0", "false", "no":
		return ""
	case "":
		if base, err := os.UserCacheDir(); err == nil {
			return filepath.Join(base, "impsim", name)
		}
		return filepath.Join(os.TempDir(), "impsim-"+name)
	default:
		return dir
	}
}

// Stats counts a store's outcomes since it was created or last flushed.
type Stats struct {
	// MemHits counts gets served from memory, DiskHits gets that missed
	// memory and were served (and promoted) from disk, Misses the rest.
	MemHits, DiskHits, Misses uint64
	// Puts counts entries published through Put, DiskPuts those persisted.
	// DiskSkips counts operations that ran with the disk layer off or
	// unusable (a failed write).
	Puts, DiskPuts, DiskSkips uint64
	// Corrupt counts entries evicted for failing the envelope check, plus
	// entries callers evicted because their payload would not decode.
	Corrupt uint64
	// Entries and Bytes measure the memory layer: entries and payload bytes.
	Entries, Bytes int
}

// Store is one view of a cache: a memory layer, shared by every view At
// derives, persisting to one directory.
type Store struct {
	dir string // "" keeps the view memory-only
	*lru
}

type lru struct {
	ext                         string
	maxEntries, maxBytes, bytes int // maxBytes 0 means no byte cap
	mu                          sync.Mutex
	ll                          list.List // of *entry, most recently used first
	items                       map[string]*list.Element
	st                          Stats
}

type entry struct {
	key  string
	data []byte
}

// New returns a store persisting to dir ("" for memory only) as
// <key><ext> files, whose memory layer holds at most maxEntries entries
// and maxBytes payload bytes (0: no byte cap).
func New(dir, ext string, maxEntries, maxBytes int) *Store {
	c := &lru{ext: ext, maxEntries: maxEntries, maxBytes: maxBytes, items: map[string]*list.Element{}}
	return &Store{dir: dir, lru: c}
}

// At returns a view sharing s's memory layer and counters that persists to
// dir instead ("" for memory only).
func (s *Store) At(dir string) *Store { return &Store{dir: dir, lru: s.lru} }

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+s.ext) }

// Get returns the bytes stored under key: memory first, then disk. A disk
// hit is promoted into memory without counting as a put.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		s.st.MemHits++
		s.mu.Unlock()
		return el.Value.(*entry).data, true
	}
	s.mu.Unlock()
	data, err := []byte(nil), errNoDir
	if s.dir != "" {
		if data, err = os.ReadFile(s.path(key)); err == nil {
			if data, err = decode(data); err != nil {
				s.Evict(key)
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch err {
	case nil:
		s.st.DiskHits++
		s.insertLocked(key, data)
		return data, true
	case errNoDir:
		s.st.DiskSkips++
	}
	s.st.Misses++
	return nil, false
}

// Put publishes data under key: into memory, and best-effort onto disk.
// Keys are content addresses, so an overwrite stores identical bytes. The
// store takes ownership of data.
func (s *Store) Put(key string, data []byte) {
	err := errNoDir
	if s.dir != "" {
		err = writeFile(s.dir, s.path(key), data)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Puts++
	s.insertLocked(key, data)
	if err == nil {
		s.st.DiskPuts++
	} else {
		s.st.DiskSkips++
	}
}

// Evict drops key from memory and disk and counts it in Stats.Corrupt.
// Callers use it for an entry whose payload will not decode, so the next
// request rebuilds it instead of re-tripping on the same bytes.
func (s *Store) Evict(key string) {
	s.mu.Lock()
	s.removeLocked(key)
	s.st.Corrupt++
	s.mu.Unlock()
	if s.dir != "" {
		// A file that cannot be removed fails its check again on the next
		// read and is retried then; a missing file is the goal anyway.
		_ = os.Remove(s.path(key))
	}
}

// Keys lists, sorted, every key the store can answer: the memory layer's
// and each well-named entry file in the directory. Temp files and foreign
// files are skipped; an entry's integrity is only checked when it is read.
func (s *Store) Keys() []string {
	s.mu.Lock()
	keys := make([]string, 0, len(s.items))
	for key := range s.items {
		keys = append(keys, key)
	}
	s.mu.Unlock()
	if s.dir != "" {
		files, _ := os.ReadDir(s.dir)
		for _, f := range files {
			if key, ok := strings.CutSuffix(f.Name(), s.ext); ok && !f.IsDir() && ValidKey(key) {
				keys = append(keys, key)
			}
		}
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Entries, s.st.Bytes = s.ll.Len(), s.bytes
	return s.st
}

// Flush empties the memory layer and zeroes the counters; the directory is
// untouched.
func (s *Store) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ll.Init()
	clear(s.items)
	s.bytes, s.st = 0, Stats{}
}

// insertLocked makes key the most recently used entry, then evicts from
// the back beyond the caps, never the entry just inserted.
func (c *lru) insertLocked(key string, data []byte) {
	if c.maxEntries <= 0 {
		return
	}
	c.removeLocked(key)
	c.items[key] = c.ll.PushFront(&entry{key: key, data: data})
	c.bytes += len(data)
	for c.ll.Len() > 1 && (c.ll.Len() > c.maxEntries || c.maxBytes > 0 && c.bytes > c.maxBytes) {
		c.removeLocked(c.ll.Back().Value.(*entry).key)
	}
}

func (c *lru) removeLocked(key string) {
	if el, ok := c.items[key]; ok {
		delete(c.items, key)
		c.bytes -= len(c.ll.Remove(el).(*entry).data)
	}
}

// magic opens every entry file. legacyMagic opened the service's result
// files before this store replaced its own; they carry the same layout, so
// an upgraded results dir still reads back.
const magic, legacyMagic = "impblob1", "impres01"

const headerLen, footerLen = len(magic) + 8, 4

var errCorrupt = errors.New("blobstore: corrupt entry")

var errNoDir = errors.New("blobstore: no disk layer")

// writeFile persists data in the envelope through a temp file in dir
// renamed to path. It does not sync: a file a crash leaves torn fails the
// envelope check on read and is evicted, so it costs a rebuild, never a
// wrong result.
func writeFile(dir, path string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".blob-*")
	if err != nil {
		return err
	}
	header := binary.BigEndian.AppendUint64([]byte(magic), uint64(len(data)))
	footer := binary.BigEndian.AppendUint32(nil, crc32.ChecksumIEEE(data))
	// net.Buffers writes the three pieces in turn without joining them.
	_, err = (&net.Buffers{header, data, footer}).WriteTo(f)
	if err = errors.Join(err, f.Close()); err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		_ = os.Remove(f.Name()) // best-effort; the write's error is the one to report
	}
	return err
}

// decode verifies one envelope and returns its payload, which aliases b.
func decode(b []byte) ([]byte, error) {
	if len(b) < headerLen+footerLen || string(b[:8]) != magic && string(b[:8]) != legacyMagic {
		return nil, errCorrupt
	}
	data, footer := b[headerLen:len(b)-footerLen], b[len(b)-footerLen:]
	if binary.BigEndian.Uint64(b[8:]) != uint64(len(data)) || binary.BigEndian.Uint32(footer) != crc32.ChecksumIEEE(data) {
		return nil, errCorrupt
	}
	return data, nil
}
