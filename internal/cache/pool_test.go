package cache

import (
	"bytes"
	"testing"

	"github.com/impsim/imp/internal/snap"
)

// fill inserts n distinct lines with varied state so every frame field is
// non-zero somewhere.
func fill(c *Cache, n int) {
	for i := 0; i < n; i++ {
		st := Shared
		if i%3 == 0 {
			st = Modified
		}
		c.Insert(uint64(i*7+1), SectorMask(i%255+1), st, int64(i*11), i%2 == 0)
		if ln := c.Probe(uint64(i*7 + 1)); ln != nil && i%4 == 0 {
			MarkDemandUse(ln, uint64(i%64), 8)
		}
	}
}

func snapshotBytes(c *Cache) []byte {
	w := snap.NewWriter(0)
	c.Snapshot(w)
	return append([]byte(nil), w.Data()...)
}

// TestNewAfterReleaseIsEmpty: a cache built on released, dirty arrays must
// be indistinguishable from a freshly allocated one.
func TestNewAfterReleaseIsEmpty(t *testing.T) {
	cfg := Config{SizeBytes: 4 * 1024, Ways: 4, SectorBytes: 8}
	want := snapshotBytes(New(cfg))
	for i := 0; i < 3; i++ {
		dirty := New(cfg)
		fill(dirty, 200)
		dirty.Release()
		c := New(cfg)
		if got := snapshotBytes(c); !bytes.Equal(got, want) {
			t.Fatalf("New on recycled arrays is not empty")
		}
		c.ForEachValid(func(*Line) { t.Fatal("New on recycled arrays has a valid line") })
	}
}

// TestRestoredOverDirtyArrays: Restored skips clearing, so it must write
// every frame — occupied and free — of a dirty pooled cache.
func TestRestoredOverDirtyArrays(t *testing.T) {
	cfg := Config{SizeBytes: 4 * 1024, Ways: 4, SectorBytes: 64}
	src := New(cfg)
	fill(src, 9) // mostly free frames, so free runs matter
	src.Invalidate(8)
	want := snapshotBytes(src)

	dirty := New(cfg)
	fill(dirty, 300)
	dirty.Release()
	c, err := Restored(cfg, snap.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(c); !bytes.Equal(got, want) {
		t.Fatal("Restored over dirty arrays re-snapshots differently")
	}
	for i := range c.lines {
		if c.tags[i] == tagFree && c.lines[i] != (Line{}) {
			t.Fatalf("free frame %d kept stale contents %+v", i, c.lines[i])
		}
	}
}

// TestRestoreRejectsOtherGeometry: the geometry header guards against a
// snapshot from a cache of the same frame count but another sector size.
func TestRestoreRejectsOtherGeometry(t *testing.T) {
	src := New(Config{SizeBytes: 4 * 1024, Ways: 4, SectorBytes: 64})
	fill(src, 20)
	if _, err := Restored(Config{SizeBytes: 4 * 1024, Ways: 4, SectorBytes: 8}, snap.NewReader(snapshotBytes(src))); err == nil {
		t.Fatal("restore into a different sector size succeeded")
	}
}

// TestRestoreRejectsTruncation cuts a snapshot at every length.
func TestRestoreRejectsTruncation(t *testing.T) {
	cfg := Config{SizeBytes: 4 * 1024, Ways: 4, SectorBytes: 64}
	src := New(cfg)
	fill(src, 40)
	data := snapshotBytes(src)
	for cut := 0; cut < len(data); cut++ {
		if err := New(cfg).Restore(snap.NewReader(data[:cut])); err == nil {
			t.Fatalf("restore of %d/%d bytes succeeded", cut, len(data))
		}
	}
}
