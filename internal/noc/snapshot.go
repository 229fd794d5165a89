package noc

import (
	"fmt"

	"github.com/impsim/imp/internal/snap"
)

// Snapshot appends the mesh's state to w: traffic counters plus every
// link's epoch-ring occupancy. Ring slots are encoded sparsely — most links
// are idle at any checkpoint, and an idle link costs one varint — but stale
// slots are preserved exactly: reserve consults the (epoch, used) pair it
// finds in a slot, so reproducing byte-identical contention requires the
// full ring contents, not just "live" reservations.
func (m *Mesh) Snapshot(w *snap.Writer) {
	w.U64(m.FlitHops)
	w.U64(m.Packets)
	w.U64(m.DataBytes)
	w.Int(len(m.links))
	for i := range m.links {
		l := &m.links[i]
		w.I64(l.hint)
		used := 0
		for s := 0; s < epochRing; s++ {
			if l.epoch[s] != 0 || l.used[s] != 0 {
				used++
			}
		}
		w.Int(used)
		for s := 0; s < epochRing; s++ {
			if l.epoch[s] != 0 || l.used[s] != 0 {
				w.Int(s)
				w.I64(l.epoch[s])
				w.I64(int64(l.used[s]))
			}
		}
	}
}

// Restore replaces the mesh's state with one written by Snapshot. The mesh
// must have been built with the same Config. Links are decoded in one pass
// over the reader's bytes rather than field by field through the
// sticky-error Reader.
func (m *Mesh) Restore(r *snap.Reader) error {
	m.FlitHops = r.U64()
	m.Packets = r.U64()
	m.DataBytes = r.U64()
	if n := r.Int(); n != len(m.links) {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("noc: snapshot has %d links, mesh has %d", n, len(m.links))
	}
	b := r.Tail()
	p := 0
	for i := range m.links {
		l := &m.links[i]
		hint, n := snap.Varint(b[p:])
		if n <= 0 {
			return linkErr(i, p)
		}
		p += n
		used, n := snap.Varint(b[p:])
		if n <= 0 {
			return linkErr(i, p)
		}
		p += n
		// slot + epoch + used, one varint byte each at minimum
		if used < 0 || used > int64(len(b)-p)/3 {
			return fmt.Errorf("noc: snapshot link %d claims %d used slots", i, used)
		}
		*l = link{hint: hint}
		for j := int64(0); j < used; j++ {
			s, n1 := snap.Varint(b[p:])
			if n1 <= 0 {
				return linkErr(i, p)
			}
			if s < 0 || s >= epochRing {
				return fmt.Errorf("noc: snapshot slot %d out of range", s)
			}
			epoch, n2 := snap.Varint(b[p+n1:])
			if n2 <= 0 {
				return linkErr(i, p+n1)
			}
			u, n3 := snap.Varint(b[p+n1+n2:])
			if n3 <= 0 {
				return linkErr(i, p+n1+n2)
			}
			p += n1 + n2 + n3
			l.epoch[s], l.used[s] = epoch, int32(u)
		}
	}
	r.Skip(p)
	return nil
}

func linkErr(link, off int) error {
	return fmt.Errorf("noc: snapshot link %d truncated at byte %d of the link data", link, off)
}
