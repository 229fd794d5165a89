package blobstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// testKey fabricates a well-formed key (24 hex chars) from i.
func testKey(i int) string { return fmt.Sprintf("%024x", i) }

const ext = ".blob"

func mustGet(t *testing.T, s *Store, key string, want []byte) {
	t.Helper()
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get(%s) = %q, %v; want %q", key, got, ok, want)
	}
}

func mustMiss(t *testing.T, s *Store, key string) {
	t.Helper()
	if got, ok := s.Get(key); ok {
		t.Fatalf("Get(%s) served %q, want a miss", key, got)
	}
}

// TestKey pins the key derivation to its definition: hex of the first 12
// bytes of SHA-256 over prefix then body. Job, trace and checkpoint keys
// all go through it, and persisted entries are named by it.
func TestKey(t *testing.T) {
	sum := sha256.Sum256([]byte("impjob|fmt1|gen1|{\"a\":1}"))
	want := hex.EncodeToString(sum[:12])
	if got := Key("impjob|fmt1|gen1|", []byte(`{"a":1}`)); got != want {
		t.Errorf("Key = %s, want %s", got, want)
	}
	if got := Key("impjob|fmt1|gen1|{\"a\":1}", nil); got != want {
		t.Errorf("Key with the body folded into the prefix = %s, want %s", got, want)
	}
	if !ValidKey(want) || len(want) != KeyLen {
		t.Errorf("Key output %q does not validate", want)
	}
	for _, bad := range []string{"", want[:KeyLen-1], want + "0", want[:KeyLen-1] + "G", want[:KeyLen-1] + "/"} {
		if ValidKey(bad) {
			t.Errorf("ValidKey accepted %q", bad)
		}
	}
}

func TestResolveDir(t *testing.T) {
	const env = "IMP_BLOBSTORE_TEST_DIR"
	t.Setenv(env, "/from/env")
	if d := ResolveDir("", env, "x"); d != "/from/env" {
		t.Errorf("env dir: %q", d)
	}
	if d := ResolveDir("/explicit", env, "x"); d != "/explicit" {
		t.Errorf("explicit override lost: %q", d)
	}
	for _, off := range []string{"off", "OFF", "0", "false", "no"} {
		t.Setenv(env, off)
		if d := ResolveDir("", env, "x"); d != "" {
			t.Errorf("%s=%s resolved to %q, want disabled", env, off, d)
		}
		if d := ResolveDir(off, "", "x"); d != "" {
			t.Errorf("override %q resolved to %q, want disabled", off, d)
		}
	}
	t.Setenv(env, "")
	if d := ResolveDir("", env, "things"); filepath.Base(d) != "things" && filepath.Base(d) != "impsim-things" {
		t.Errorf("default dir %q is not named after the cache", d)
	}
}

// TestLRUEntryCap: eviction removes the least recently *used* entry, with
// gets counting as use — not merely the oldest put.
func TestLRUEntryCap(t *testing.T) {
	s := New("", "", 3, 0)
	for i := 0; i < 3; i++ {
		s.Put(testKey(i), []byte{byte(i)})
	}
	mustGet(t, s, testKey(0), []byte{0}) // key 1 becomes the LRU victim
	s.Put(testKey(3), []byte{3})
	mustMiss(t, s, testKey(1))
	for _, i := range []int{0, 2, 3} {
		mustGet(t, s, testKey(i), []byte{byte(i)})
	}
	if st := s.Stats(); st.Entries != 3 || st.Bytes != 3 || st.Puts != 4 || st.Misses != 1 || st.MemHits != 4 {
		t.Errorf("stats: %+v", st)
	}
}

// TestLRUByteCap: the byte cap evicts from the back too, a lone entry
// larger than the cap is kept, and overwrites account bytes exactly.
func TestLRUByteCap(t *testing.T) {
	s := New("", "", 100, 10)
	s.Put(testKey(0), []byte("aaaa"))
	s.Put(testKey(1), []byte("bbbb"))
	s.Put(testKey(2), []byte("cccc")) // 12 bytes > 10: evicts key 0
	mustMiss(t, s, testKey(0))
	if st := s.Stats(); st.Entries != 2 || st.Bytes != 8 {
		t.Fatalf("after byte-cap eviction: %+v", st)
	}

	// Overwrite in place: growing key 2 by two bytes is exactly 10.
	s.Put(testKey(2), []byte("cccccc"))
	if st := s.Stats(); st.Entries != 2 || st.Bytes != 10 {
		t.Fatalf("overwrite accounting: %+v", st)
	}
	mustGet(t, s, testKey(2), []byte("cccccc"))

	// A lone oversize entry evicts everything else but stays itself.
	big := bytes.Repeat([]byte("x"), 25)
	s.Put(testKey(3), big)
	mustGet(t, s, testKey(3), big)
	if st := s.Stats(); st.Entries != 1 || st.Bytes != 25 {
		t.Fatalf("lone oversize entry: %+v", st)
	}
	// The next insert makes it the LRU victim.
	s.Put(testKey(4), []byte("d"))
	mustMiss(t, s, testKey(3))
	if st := s.Stats(); st.Entries != 1 || st.Bytes != 1 {
		t.Fatalf("after oversize eviction: %+v", st)
	}
}

// TestNoMemoryLayer: a zero entry cap keeps nothing in memory, so a
// caller with its own decoded memo (the trace cache) holds no second copy
// of the bytes; the disk layer still serves.
func TestNoMemoryLayer(t *testing.T) {
	dir := t.TempDir()
	s := New(dir, ext, 0, 0)
	s.Put(testKey(1), []byte("on disk only"))
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 || st.DiskPuts != 1 {
		t.Fatalf("memory layer retained bytes: %+v", st)
	}
	mustGet(t, s, testKey(1), []byte("on disk only"))
	mustGet(t, s, testKey(1), []byte("on disk only"))
	if st := s.Stats(); st.DiskHits != 2 || st.MemHits != 0 || st.Entries != 0 {
		t.Fatalf("disk reads: %+v", st)
	}
	mem := New("", ext, 0, 0)
	mem.Put(testKey(1), []byte("x"))
	mustMiss(t, mem, testKey(1))
}

// TestDiskRoundTrip: a put lands on disk and a fresh store over the same
// directory serves it, counted as a disk hit and promoted to memory — a
// cache movement, not a put.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1 := New(dir, ext, 4, 0)
	s1.Put(testKey(7), []byte("payload"))
	if st := s1.Stats(); st.DiskPuts != 1 || st.Puts != 1 {
		t.Fatalf("after put: %+v", st)
	}

	s2 := New(dir, ext, 4, 0)
	mustGet(t, s2, testKey(7), []byte("payload"))
	if st := s2.Stats(); st.DiskHits != 1 || st.MemHits != 0 || st.Puts != 0 || st.Entries != 1 {
		t.Errorf("first read not a promoted disk hit: %+v", st)
	}
	mustGet(t, s2, testKey(7), []byte("payload"))
	if st := s2.Stats(); st.DiskHits != 1 || st.MemHits != 1 || st.Puts != 0 {
		t.Errorf("second read not served from memory: %+v", st)
	}
	mustMiss(t, s2, testKey(8))
	if st := s2.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Errorf("absent key: %+v", st)
	}
}

// TestDiskFaults drives every disk failure mode through a cold store. A
// damaged envelope is a miss, counted and evicted; a transient read error
// is a miss that leaves the entry alone; an unusable directory degrades
// the store to memory.
func TestDiskFaults(t *testing.T) {
	payload := []byte("precious bytes")
	rewrite := func(f func(b []byte) []byte) func(t *testing.T, path string) {
		return func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f(b), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		// dir returns the store directory, given a fresh temp dir.
		dir func(t *testing.T, tmp string) string
		// fault damages the persisted entry before a cold read.
		fault    func(t *testing.T, path string)
		served   bool
		corrupt  uint64
		diskPuts uint64
		fileGone bool
	}{
		{name: "byte-flip", fault: rewrite(func(b []byte) []byte { b[headerLen+3] ^= 0x40; return b }),
			corrupt: 1, diskPuts: 1, fileGone: true},
		{name: "crc-flip", fault: rewrite(func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }),
			corrupt: 1, diskPuts: 1, fileGone: true},
		{name: "truncation", fault: rewrite(func(b []byte) []byte { return b[:len(b)/2] }),
			corrupt: 1, diskPuts: 1, fileGone: true},
		{name: "length-lie", fault: rewrite(func(b []byte) []byte { b[headerLen-1]++; return b }),
			corrupt: 1, diskPuts: 1, fileGone: true},
		{name: "bad-magic", fault: rewrite(func([]byte) []byte { return []byte("not a blob file at all") }),
			corrupt: 1, diskPuts: 1, fileGone: true},
		{name: "empty", fault: rewrite(func([]byte) []byte { return nil }),
			corrupt: 1, diskPuts: 1, fileGone: true},
		{name: "transient-read", fault: func(t *testing.T, path string) {
			// A directory where the file should be fails the read without
			// saying anything about the entry's integrity.
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(path, 0o755); err != nil {
				t.Fatal(err)
			}
		}, diskPuts: 1},
		{name: "unwritable-dir", dir: func(t *testing.T, tmp string) string {
			// A regular file as parent makes the directory uncreatable,
			// even for root.
			file := filepath.Join(tmp, "file")
			if err := os.WriteFile(file, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			return filepath.Join(file, "sub")
		}, served: true, fileGone: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.dir != nil {
				dir = tc.dir(t, dir)
			}
			s := New(dir, ext, 4, 0)
			s.Put(testKey(1), payload)
			path := filepath.Join(dir, testKey(1)+ext)
			if st := s.Stats(); st.DiskPuts != tc.diskPuts || st.DiskSkips != 1-tc.diskPuts {
				t.Fatalf("put: %+v", st)
			}
			if tc.fault != nil {
				tc.fault(t, path)
				s = New(dir, ext, 4, 0) // cold memory forces the disk read
			}
			got, ok := s.Get(testKey(1))
			if ok != tc.served || ok && !bytes.Equal(got, payload) {
				t.Fatalf("Get = %q, %v; want served=%v", got, ok, tc.served)
			}
			if st := s.Stats(); st.Corrupt != tc.corrupt || !ok && st.Misses != 1 {
				t.Errorf("stats: %+v, want Corrupt=%d", st, tc.corrupt)
			}
			if _, err := os.Stat(path); (err != nil) != tc.fileGone {
				t.Errorf("entry file gone = %v, want %v (stat: %v)", err != nil, tc.fileGone, err)
			}
		})
	}
}

// TestLegacyResultFile: a result file written by the service's result
// store before it moved onto this package reads back unchanged, so an
// upgraded -results-dir comes back warm.
func TestLegacyResultFile(t *testing.T) {
	const key = "191a3534ae2efdc99d474015"
	b, err := os.ReadFile(filepath.Join("testdata", key+".impresult"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, key+".impresult"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(dir, ".impresult", 4, 0)
	if keys := s.Keys(); len(keys) != 1 || keys[0] != key {
		t.Fatalf("inventory: %v", keys)
	}
	mustGet(t, New(dir, ".impresult", 4, 0), key, b[headerLen:len(b)-footerLen])
	if !bytes.HasPrefix(b[headerLen:], []byte("{\n")) {
		t.Errorf("fixture payload is not the JSON it was written with")
	}
}

// TestEvictDropsBothLayers: Evict removes the entry from memory and disk
// and counts it as corrupt.
func TestEvictDropsBothLayers(t *testing.T) {
	dir := t.TempDir()
	s := New(dir, ext, 4, 0)
	s.Put(testKey(1), []byte("poisoned"))
	s.Evict(testKey(1))
	mustMiss(t, s, testKey(1))
	if _, err := os.Stat(filepath.Join(dir, testKey(1)+ext)); !os.IsNotExist(err) {
		t.Errorf("evicted file still on disk: %v", err)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestAtSharesMemory: views made by At share one memory layer and one set
// of counters but persist to their own directories.
func TestAtSharesMemory(t *testing.T) {
	d1, d2 := t.TempDir(), t.TempDir()
	base := New("", ext, 4, 0)
	base.At(d1).Put(testKey(1), []byte("one"))
	mustGet(t, base.At(d2), testKey(1), []byte("one"))
	if _, err := os.Stat(filepath.Join(d1, testKey(1)+ext)); err != nil {
		t.Errorf("not persisted to the view's dir: %v", err)
	}
	if _, err := os.Stat(filepath.Join(d2, testKey(1)+ext)); !os.IsNotExist(err) {
		t.Errorf("persisted to another view's dir: %v", err)
	}
	if st := base.Stats(); st.Puts != 1 || st.MemHits != 1 || st.DiskPuts != 1 {
		t.Errorf("shared counters: %+v", st)
	}
	base.Flush()
	if st := base.Stats(); st != (Stats{}) {
		t.Errorf("after Flush: %+v", st)
	}
	mustGet(t, base.At(d1), testKey(1), []byte("one")) // disk survives Flush
}

// TestKeysInventory: Keys unions memory with the directory, sorted,
// skipping temp files, foreign files, directories and malformed names.
func TestKeysInventory(t *testing.T) {
	dir := t.TempDir()
	s := New(dir, ext, 4, 0)
	s.Put(testKey(3), []byte("x"))
	s.At("").Put(testKey(2), []byte("memory only"))
	if err := os.WriteFile(filepath.Join(dir, testKey(1)+ext), []byte("unchecked"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"notes.txt", "zz" + ext, ".blob-123", testKey(9) + ".other"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, testKey(8)+ext), 0o755); err != nil {
		t.Fatal(err)
	}
	want := []string{testKey(1), testKey(2), testKey(3)}
	if got := s.Keys(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Keys = %v, want %v", got, want)
	}
	if got := New("", ext, 4, 0).Keys(); len(got) != 0 {
		t.Errorf("empty memory-only store lists %v", got)
	}
}

// TestConcurrentUse exercises every method at once under -race.
func TestConcurrentUse(t *testing.T) {
	s := New(t.TempDir(), ext, 8, 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := testKey(i % 12)
				s.Put(key, []byte(key))
				if got, ok := s.Get(key); ok && string(got) != key {
					t.Errorf("Get(%s) = %q", key, got)
				}
				if i%10 == w {
					s.Evict(key)
				}
				s.Keys()
				s.Stats()
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Entries > 8 || st.Bytes > 64 {
		t.Errorf("caps exceeded: %+v", st)
	}
}

// envelope wraps payload the way writeFile does, for the fuzz seeds.
func envelope(m string, payload []byte) []byte {
	b := binary.BigEndian.AppendUint64([]byte(m), uint64(len(payload)))
	b = append(b, payload...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// FuzzEnvelope feeds hostile files to a cold store. Whatever the bytes, a
// read never panics and serves a payload only when the file is a
// well-formed envelope of exactly that payload; anything else is a miss
// that evicts the file and counts it as corrupt.
func FuzzEnvelope(f *testing.F) {
	f.Add(envelope(magic, []byte("payload")))
	f.Add(envelope(legacyMagic, []byte(`{"results":[]}`)))
	f.Add(envelope(magic, nil))
	f.Add([]byte("impblob1"))
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, testKey(1)+ext)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		s := New(dir, ext, 4, 0)
		got, ok := s.Get(testKey(1))
		st := s.Stats()
		if ok {
			// Served: b must be exactly the envelope of what came back.
			if m := string(b[:8]); !bytes.Equal(b, envelope(m, got)) || m != magic && m != legacyMagic {
				t.Fatalf("served %q from a file that is not its envelope", got)
			}
			if st.DiskHits != 1 || st.Corrupt != 0 {
				t.Fatalf("served read stats: %+v", st)
			}
			return
		}
		if st.Corrupt != 1 || st.Misses != 1 {
			t.Fatalf("rejected file not counted as corrupt: %+v", st)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("rejected file not evicted: %v", err)
		}
	})
}

// BenchmarkStoreChurn measures put-with-eviction under steady churn on
// the memory layer — the regression this guards is a full-map victim scan
// (O(n) per put, quadratic under churn) instead of the LRU list.
func BenchmarkStoreChurn(b *testing.B) {
	const maxEntries = 1024
	s := New("", "", maxEntries, 0)
	keys := make([]string, 4*maxEntries)
	for i := range keys {
		keys[i] = testKey(i)
	}
	data := []byte("result bytes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(keys[i%len(keys)], data)
		s.Get(keys[(i*7)%len(keys)])
	}
}
