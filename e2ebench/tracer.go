package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around that call. Spans of one cell (or one job) share a Group.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Group  int64  `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Inner is time inside the span spent in a nested layer whose calls
	// are too fine-grained to record one by one (the trace sink's
	// per-event appends inside a simulation). It counts as covered, not
	// as the span's self time.
	Inner int64 `json:"inner_ns,omitempty"`
}

// counter names a per-layer work count recorded at the same call
// boundaries as the spans.
type counter int

const (
	cSimRuns counter = iota
	cSimEvents
	cSimMessages
	cArchiveBytes
	cArchiveEvents
	cTraceErrors
	cGraphBuilds
	cGraphNodes
	cCacheHits
	cCacheMisses
	numCounters
)

// tracer keeps spans in memory for the length of a traced measurement.
// Its methods are safe for concurrent use, and a nil *tracer records
// nothing, so the untraced replay loop shares the traced one's code.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	counts [numCounters]atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span; end records it.
func (t *tracer) begin(name string, parent, group int64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.nextID.Add(1), Parent: parent, Group: group, Name: name, Start: t.now()}
}

func (t *tracer) end(s span) { t.endInner(s, 0) }

func (t *tracer) endInner(s span, inner time.Duration) {
	if t == nil {
		return
	}
	s.End = t.now()
	s.Inner = int64(inner)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// group allocates an id shared by the spans of one cell or job.
func (t *tracer) group() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) count(c counter, n int64) {
	if t != nil {
		t.counts[c].Add(n)
	}
}

func (t *tracer) counted(c counter) int64 { return t.counts[c].Load() }

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the union of its children's intervals and minus its Inner time.
// It also returns the summed Inner time per span name.
func selfTimes(spans []span) (self, inner map[string]time.Duration) {
	type interval struct{ lo, hi int64 }
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self = make(map[string]time.Duration)
	inner = make(map[string]time.Duration)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo := max(k.lo, hi)
			end := min(k.hi, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		d := s.End - s.Start - covered - s.Inner
		if d < 0 {
			d = 0
		}
		self[s.Name] += time.Duration(d)
		inner[s.Name] += time.Duration(s.Inner)
	}
	return self, inner
}
