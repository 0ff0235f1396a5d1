package main

// Spans recorded by the benchmark around its calls into each layer's
// public API (in the style of Dapper: Sigelman et al., 2010). Spans
// live in memory while the run is measured and are written out when it
// ends.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call. Start and End are offsets from the tracer's
// epoch; Parent is 0 for a root span. Spans of one request share Req.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer collects spans. A nil *tracer records nothing, so the same
// replay code runs traced and untraced.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span ID, so children can name a parent that has not
// ended yet.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a child span of parent and returns f's error.
func (t *tracer) timed(parent, req int64, name string, f func() error) error {
	if t == nil {
		return f()
	}
	id := t.newID()
	start := time.Now()
	err := f()
	t.add(id, parent, req, name, start, time.Now())
	return err
}

// durations returns the durations of the spans named name.
func (t *tracer) durations(name string) *hist {
	h := &hist{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			h.record(s.dur())
		}
	}
	return h
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap each
// other and may outlast their parent; only their union inside the
// parent's interval counts.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cur, curEnd := s.Start, s.Start // the covered interval being extended
		for _, k := range kids {
			start, end := max(k.Start, s.Start), min(k.End, s.End)
			if end <= start {
				continue
			}
			if start > curEnd {
				covered += curEnd - cur
				cur, curEnd = start, end
			} else if end > curEnd {
				curEnd = end
			}
		}
		covered += curEnd - cur
		out[s.ID] = s.dur() - covered
	}
	return out
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}
