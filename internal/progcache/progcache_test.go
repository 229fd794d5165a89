package progcache

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/impsim/imp/internal/blobstore"
	"github.com/impsim/imp/internal/workload"
)

var smallOpt = workload.Options{Cores: 4, Scale: 0.05}

func setDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	t.Setenv(EnvDir, dir)
	Flush()
	t.Cleanup(Flush)
	return dir
}

func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.imptrace"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

func TestBuildPersistsAndReloads(t *testing.T) {
	dir := setDir(t)
	p1, err := Get("spmv", smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cacheFiles(t, dir)); n != 1 {
		t.Fatalf("after first build: %d cache files, want 1", n)
	}
	if st := GetStats(); st.Builds != 1 || st.DiskHits != 0 {
		t.Fatalf("first build stats: %+v", st)
	}

	// Same process: served from memory, no new build.
	p2, err := Get("spmv", smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Error("second Get did not share the in-memory program")
	}
	if st := GetStats(); st.Builds != 1 || st.MemHits != 1 {
		t.Fatalf("memory hit stats: %+v", st)
	}

	// "New process" (flushed memory): served from disk, still no rebuild.
	Flush()
	p3, err := Get("spmv", smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	if st := GetStats(); st.DiskHits != 1 || st.Builds != 0 {
		t.Fatalf("disk hit stats: %+v", st)
	}
	// The decoded program must be byte-identical to the fresh build.
	for c := range p1.Traces {
		if !reflect.DeepEqual(p3.Traces[c].Records, p1.Traces[c].Records) {
			t.Fatalf("core %d: cached records differ from built records", c)
		}
	}
}

func TestKeySeparatesOptions(t *testing.T) {
	dir := setDir(t)
	if _, err := Get("spmv", smallOpt); err != nil {
		t.Fatal(err)
	}
	swOpt := smallOpt
	swOpt.SoftwarePrefetch = true
	if _, err := Get("spmv", swOpt); err != nil {
		t.Fatal(err)
	}
	seedOpt := smallOpt
	seedOpt.Seed = 99
	if _, err := Get("spmv", seedOpt); err != nil {
		t.Fatal(err)
	}
	if n := len(cacheFiles(t, dir)); n != 3 {
		t.Fatalf("3 distinct option sets produced %d cache files, want 3", n)
	}
}

func TestDefaultSeedSharesEntry(t *testing.T) {
	dir := setDir(t)
	if _, err := Get("dense", smallOpt); err != nil { // Seed 0 -> default 42
		t.Fatal(err)
	}
	explicit := smallOpt
	explicit.Seed = 42
	if _, err := Get("dense", explicit); err != nil {
		t.Fatal(err)
	}
	if n := len(cacheFiles(t, dir)); n != 1 {
		t.Fatalf("seed 0 and explicit default seed made %d files, want 1 shared entry", n)
	}
	if st := GetStats(); st.Builds != 1 {
		t.Fatalf("stats: %+v, want a single build", st)
	}
}

func TestDisabledWritesNothing(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(EnvDir, "off")
	Flush()
	t.Cleanup(Flush)
	if _, err := Get("spmv", smallOpt); err != nil {
		t.Fatal(err)
	}
	if n := len(cacheFiles(t, dir)); n != 0 {
		t.Fatalf("disabled cache wrote %d files", n)
	}
	if d := blobstore.ResolveDir("", EnvDir, "traces"); d != "" {
		t.Errorf("disk layer resolves to %q under IMP_TRACE_CACHE=off", d)
	}
	if st := GetStats(); st.DiskSkips == 0 || st.Builds != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCorruptedFileRebuilds(t *testing.T) {
	dir := setDir(t)
	if _, err := Get("spmv", smallOpt); err != nil {
		t.Fatal(err)
	}
	files := cacheFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d cache files", len(files))
	}
	// Truncate the cached trace: the checksum no longer matches.
	if err := os.Truncate(files[0], 100); err != nil {
		t.Fatal(err)
	}
	Flush()
	p, err := Get("spmv", smallOpt)
	if err != nil {
		t.Fatalf("corrupted cache entry broke Get: %v", err)
	}
	if p == nil || len(p.Traces) == 0 {
		t.Fatal("rebuild returned an empty program")
	}
	if st := GetStats(); st.Builds != 1 || st.DiskHits != 0 {
		t.Fatalf("stats after corruption: %+v, want a rebuild", st)
	}
	// The rebuilt trace must have replaced the corrupt file.
	fi, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= 100 {
		t.Error("corrupt cache file was not rewritten")
	}
}

func TestUnknownWorkloadErrorShared(t *testing.T) {
	setDir(t)
	if _, err := Get("nope", smallOpt); err == nil {
		t.Fatal("unknown workload built successfully")
	}
	if _, err := Get("nope", smallOpt); err == nil {
		t.Fatal("cached error lost")
	}
}

func TestConcurrentGetBuildsOnce(t *testing.T) {
	setDir(t)
	const n = 8
	progs := make(chan interface{}, n)
	for i := 0; i < n; i++ {
		go func() {
			p, err := Get("pagerank", smallOpt)
			if err != nil {
				progs <- err
				return
			}
			progs <- p
		}()
	}
	var first interface{}
	for i := 0; i < n; i++ {
		got := <-progs
		if err, ok := got.(error); ok {
			t.Fatal(err)
		}
		if first == nil {
			first = got
		} else if got != first {
			t.Fatal("concurrent Gets returned distinct programs")
		}
	}
	if st := GetStats(); st.Builds != 1 {
		t.Fatalf("stats: %+v, want exactly one build", st)
	}
}

// TestInPlaceCorruptionEvictsAndRebuilds flips bytes inside a cached trace
// (same length, so only the CRC can catch it) and requires the next Get to
// detect, evict and rebuild the entry instead of failing — and to leave a
// valid file behind for the process after that.
func TestInPlaceCorruptionEvictsAndRebuilds(t *testing.T) {
	dir := setDir(t)
	p1, err := Get("spmv", smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	files := cacheFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d cache files, want 1", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt record bytes mid-file without changing the size.
	for off := len(data) / 2; off < len(data)/2+32 && off < len(data); off++ {
		data[off] ^= 0xa5
	}
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	Flush()
	p2, err := Get("spmv", smallOpt)
	if err != nil {
		t.Fatalf("in-place corruption failed the experiment: %v", err)
	}
	st := GetStats()
	if st.Corrupt != 1 || st.Builds != 1 || st.DiskHits != 0 {
		t.Fatalf("stats after corruption: %+v, want Corrupt=1 Builds=1 DiskHits=0", st)
	}
	// The rebuilt program must match the original build record for record.
	if len(p2.Traces) != len(p1.Traces) {
		t.Fatalf("rebuild changed core count: %d vs %d", len(p2.Traces), len(p1.Traces))
	}
	for c := range p1.Traces {
		if !reflect.DeepEqual(p2.Traces[c].Records, p1.Traces[c].Records) {
			t.Fatalf("core %d: rebuilt records differ from original build", c)
		}
	}
	// And the poisoned file must have been replaced with a decodable one.
	Flush()
	if _, err := Get("spmv", smallOpt); err != nil {
		t.Fatal(err)
	}
	if st := GetStats(); st.DiskHits != 1 || st.Corrupt != 0 {
		t.Fatalf("stats after rebuild: %+v, want a clean disk hit", st)
	}
}

// TestCorruptionEvictsEvenWhenRebuildCannotPersist: with the cache dir made
// read-only after corruption, the bad entry is still removed from the Get
// path's view (best effort) and the build succeeds from scratch.
func TestCorruptionUnderReadOnlyDirStillBuilds(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("root ignores directory write permissions")
	}
	dir := setDir(t)
	if _, err := Get("dense", smallOpt); err != nil {
		t.Fatal(err)
	}
	files := cacheFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d cache files", len(files))
	}
	if err := os.Truncate(files[0], 10); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })
	Flush()
	if _, err := Get("dense", smallOpt); err != nil {
		t.Fatalf("read-only cache dir failed the experiment: %v", err)
	}
	if st := GetStats(); st.Corrupt != 1 || st.Builds != 1 {
		t.Fatalf("stats: %+v", st)
	}
}
