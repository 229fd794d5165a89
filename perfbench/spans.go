package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call recorded by the traced run. Spans of one simulation
// point or one job share a trace ID; times are relative to the tracer's
// origin.
type span struct {
	Name   string        `json:"name"`
	Trace  uint64        `json:"trace"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes run the same code.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	ids    uint64
	traces uint64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// openSpan is a span that has started but not ended. The zero openSpan
// stands for "no parent".
type openSpan struct {
	t      *tracer
	name   string
	trace  uint64
	id     uint64
	parent uint64
	start  time.Time
}

// begin starts a span under parent (the zero openSpan for the top-level
// span). newTrace gives it a fresh trace ID instead of its parent's.
func (t *tracer) begin(name string, parent openSpan, newTrace bool) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	tr := parent.trace
	if newTrace || parent.id == 0 {
		t.traces++
		tr = t.traces
	}
	return openSpan{t: t, name: name, trace: tr, id: t.ids, parent: parent.id, start: time.Now()}
}

func (s openSpan) end() { s.endAt(time.Now()) }

func (s openSpan) endAt(end time.Time) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.spans = append(s.t.spans, span{
		Name: s.name, Trace: s.trace, ID: s.id, Parent: s.parent,
		Start: s.start.Sub(s.t.origin), End: end.Sub(s.t.origin),
	})
}

// record adds a finished span with its own trace ID under parent, for work
// the benchmark learns about after the fact: a sweep point's ProgressEvent
// carries its elapsed time when the point completes.
func (t *tracer) record(name string, parent openSpan, start, end time.Time) {
	s := t.begin(name, parent, true)
	s.start = start
	s.endAt(end)
}

func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes attributes the top-level span's wall time to layers (span
// names): each instant goes to the deepest spans open at that instant, split
// evenly when several are open at that depth. Parallel points or jobs thus
// share the instants they overlap, and the self times of all layers sum to
// the top-level span's duration. It returns the per-layer self times and
// that duration, in seconds.
func (t *tracer) selfTimes() (self map[string]float64, top float64) {
	self = map[string]float64{}
	if t == nil || len(t.spans) == 0 {
		return self, 0
	}
	byID := map[uint64]*span{}
	var root *span
	for i := range t.spans {
		s := &t.spans[i]
		byID[s.ID] = s
		if s.Parent == 0 && (root == nil || s.End-s.Start > root.End-root.Start) {
			root = s
		}
	}
	depth := func(s *span) int {
		d := 0
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				return -1
			}
			s = p
			d++
		}
		if s != root {
			return -1
		}
		return d
	}
	type edge struct {
		at    time.Duration
		open  bool
		s     *span
		depth int
	}
	var edges []edge
	for i := range t.spans {
		s := &t.spans[i]
		d := depth(s)
		if d < 0 {
			continue
		}
		// Clip to the top-level span: children timed from their
		// ProgressEvent can start a hair before their parent.
		start, end := max(s.Start, root.Start), min(s.End, root.End)
		if end <= start {
			continue
		}
		edges = append(edges, edge{start, true, s, d}, edge{end, false, s, d})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return !edges[i].open && edges[j].open // close before open
	})
	open := map[*span]int{}
	prev := root.Start
	for _, e := range edges {
		if dt := e.at - prev; dt > 0 && len(open) > 0 {
			deepest, n := -1, 0
			for _, d := range open {
				if d > deepest {
					deepest, n = d, 1
				} else if d == deepest {
					n++
				}
			}
			share := dt.Seconds() / float64(n)
			for s, d := range open {
				if d == deepest {
					self[s.Name] += share
				}
			}
		}
		prev = e.at
		if e.open {
			open[e.s] = e.depth
		} else {
			delete(open, e.s)
		}
	}
	return self, (root.End - root.Start).Seconds()
}
