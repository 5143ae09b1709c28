package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// Span is one timed call into a layer. Spans of one operation share Op;
// Parent is the enclosing span's ID (0 for an operation's root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run measures the end-to-end metrics.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) span(op, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// open starts a span whose ID children can name before it ends; close
// sets its end.
func (t *tracer) open(op, parent int, name string) int {
	now := time.Now()
	return t.span(op, parent, name, now, now)
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// checkNesting verifies that every span ends after it starts and lies
// within its parent, which belongs to the same operation.
func checkNesting(spans []Span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) {
			return fmt.Errorf("span %d %s has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if p.Op != s.Op {
			return fmt.Errorf("span %d %s (op %d) under span %d of op %d", s.ID, s.Name, s.Op, p.ID, p.Op)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s [%d,%d] escapes parent %d %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// selfTimes returns, per span ID, its duration minus the part of its
// interval that its children cover.
func selfTimes(spans []Span) map[int]time.Duration {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - time.Duration(covered(kids[s.ID], s.Start, s.End))
	}
	return self
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// writeSpans writes the spans as JSON.
func writeSpans(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
