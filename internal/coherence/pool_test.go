package coherence

import (
	"testing"

	"github.com/impsim/imp/internal/snap"
)

// grow fills d with n lines, forcing rehashes to larger tables, and evicts
// every third one so tombstones exist too.
func grow(d *Directory, n int) {
	for i := 0; i < n; i++ {
		d.Read(uint64(i), i%8)
	}
	for i := 0; i < n; i += 3 {
		d.EvictL2(uint64(i))
	}
}

// TestRecycledTableMatchesFresh: a directory built or restored after larger
// tables were released must get exactly the slot count a fresh one would,
// with every slot empty.
func TestRecycledTableMatchesFresh(t *testing.T) {
	for i := 0; i < 3; i++ {
		big := New(DefaultK, 8)
		grow(big, 5000)
		big.Release()
	}
	d := New(DefaultK, 8)
	if len(d.keys) != initialSlots || d.Lines() != 0 {
		t.Fatalf("recycled New: %d slots, %d lines; want %d, 0", len(d.keys), d.Lines(), initialSlots)
	}
	for i, st := range d.state {
		if st != slotEmpty {
			t.Fatalf("recycled New: slot %d not empty", i)
		}
	}

	src := New(DefaultK, 8)
	grow(src, 600)
	w := snap.NewWriter(0)
	src.Snapshot(w)
	fresh := &Directory{k: DefaultK, numCores: 8}
	if err := fresh.Restore(snap.NewReader(w.Data())); err != nil {
		t.Fatal(err)
	}
	grow(New(DefaultK, 8), 5000) // leaves recycled tables of other sizes around
	got := New(DefaultK, 8)
	if err := got.Restore(snap.NewReader(w.Data())); err != nil {
		t.Fatal(err)
	}
	if len(got.keys) != len(fresh.keys) || got.Lines() != src.Lines() {
		t.Fatalf("restored: %d slots, %d lines; want %d, %d", len(got.keys), got.Lines(), len(fresh.keys), src.Lines())
	}
	w2 := snap.NewWriter(0)
	got.Snapshot(w2)
	if string(w2.Data()) != string(w.Data()) {
		t.Fatal("restored directory re-snapshots differently")
	}
}
