package cache

import (
	"fmt"

	"github.com/impsim/imp/internal/snap"
)

// Snapshot appends the cache's mutable state to w: the replacement clock,
// the geometry it was taken under (the owning simulator rebuilds the cache
// from its own Config, and Restore checks the two agree), then the occupied
// frames. Each occupied frame is preceded by the number of free frames
// since the previous one; free frames after the last are implied.
func (c *Cache) Snapshot(w *snap.Writer) {
	w.U64(c.clock)
	w.Int(c.cfg.SizeBytes)
	w.Int(c.cfg.Ways)
	w.Int(c.cfg.SectorBytes)
	n := 0
	for _, tg := range c.tags {
		if tg != tagFree {
			n++
		}
	}
	w.Int(n)
	next := 0 // first frame not yet encoded
	for i := range c.lines {
		if c.tags[i] == tagFree {
			continue
		}
		ln := &c.lines[i]
		w.U64(uint64(i - next))
		w.U64(ln.Tag)
		w.U8(uint8(ln.State))
		w.U8(uint8(ln.Valid))
		w.I64(ln.FillTime)
		w.Bool(ln.Prefetched)
		w.Bool(ln.Used)
		w.U8(ln.Touch)
		w.U64(ln.lru)
		next = i + 1
	}
}

// Restored builds a cache from cfg holding a state written by Snapshot. A
// pooled cache of the same geometry is reused without clearing it first:
// Restore overwrites every frame. On error the cache goes back to the pool.
func Restored(cfg Config, r *snap.Reader) (*Cache, error) {
	c := recycled(cfg)
	if err := c.Restore(r); err != nil {
		c.Release()
		return nil, err
	}
	return c, nil
}

// frameMin is the smallest encoding of an occupied frame: the free-run
// length and eight fields, one byte each.
const frameMin = 9

// Restore overwrites every frame and the clock of the cache with a state
// written by Snapshot. The cache must have been built with the same Config.
// Occupied frames are decoded in one pass over the reader's bytes rather
// than field by field through the sticky-error Reader; free runs are
// cleared in bulk.
func (c *Cache) Restore(r *snap.Reader) error {
	c.clock = r.U64()
	geom := Config{SizeBytes: r.Int(), Ways: r.Int(), SectorBytes: r.Int()}
	n := r.Count(frameMin)
	if err := r.Err(); err != nil {
		return err
	}
	if geom != c.cfg {
		return fmt.Errorf("cache: snapshot taken with geometry %+v, cache has %+v", geom, c.cfg)
	}
	b := r.Tail()
	p, next := 0, 0
	for k := 0; k < n; k++ {
		skip, m := snap.Uvarint(b[p:])
		if m <= 0 || skip >= uint64(len(c.lines)-next) {
			return frameErr(k, p, "bad free-run length")
		}
		p += m
		c.free(next, next+int(skip))
		i := next + int(skip)
		tag, m := snap.Uvarint(b[p:])
		if m <= 0 || len(b)-p-m < 2 {
			return frameErr(k, p, "truncated")
		}
		p += m
		st, valid := b[p], b[p+1]
		p += 2
		fill, m := snap.Varint(b[p:])
		if m <= 0 || len(b)-p-m < 3 {
			return frameErr(k, p, "truncated")
		}
		p += m
		pf, used, touch := b[p], b[p+1], b[p+2]
		if pf > 1 || used > 1 {
			return frameErr(k, p, "bad bool byte")
		}
		p += 3
		lru, m := snap.Uvarint(b[p:])
		if m <= 0 {
			return frameErr(k, p, "truncated")
		}
		p += m
		c.lines[i] = Line{
			Tag: tag, State: State(st), Valid: SectorMask(valid), FillTime: fill,
			Prefetched: pf == 1, Used: used == 1, Touch: touch, lru: lru,
		}
		c.tags[i] = tag
		next = i + 1
	}
	c.free(next, len(c.lines))
	r.Skip(p)
	return nil
}

// free empties frames [lo, hi).
func (c *Cache) free(lo, hi int) {
	clear(c.lines[lo:hi])
	tags := c.tags[lo:hi]
	for i := range tags {
		tags[i] = tagFree
	}
}

func frameErr(frame, off int, what string) error {
	return fmt.Errorf("cache: snapshot frame %d: %s at byte %d of the frame data", frame, what, off)
}
