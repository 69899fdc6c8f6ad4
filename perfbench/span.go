package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Parent is the enclosing span's ID (0 at
// the top); Req ties together the spans of one request or cell.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so untraced runs pay only a nil check.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Begin(name string, parent int, req int64) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(r.spans)
}

// Finish closes span id.
func (r *Recorder) Finish(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Spans returns a copy of the closed spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// Span returns span id as recorded so far (End is -1 while it is open).
func (r *Recorder) Span(id int) Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

// Duration is the length of closed span id (0 while it is open).
func (r *Recorder) Duration(id int) time.Duration {
	s := r.Span(id)
	if s.End < 0 {
		return 0
	}
	return time.Duration(s.End - s.Start)
}

// Children returns the closed spans whose parent is id, in the order they
// were opened. Spans are appended as they open, so children follow their
// parent.
func (r *Recorder) Children(id int) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	for _, s := range r.spans[id:] {
		if s.Parent == id && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteJSONL writes every closed span to path, one JSON object a line.
func (r *Recorder) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
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

// SelfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children. Children may overlap (parallel
// workers), so the covered part is the union of their intervals clipped
// to the parent.
func SelfTimes(spans []Span) map[string]time.Duration {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		self := (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
		out[s.Name] += time.Duration(self)
	}
	return out
}

// covered returns the length of the union of the children's intervals
// within [start, end].
func covered(start, end int64, children []Span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, start), min(c.End, end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// formatSelfTimes renders the self-time summary, largest first.
func formatSelfTimes(self map[string]time.Duration) string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	s := "self time by span:\n"
	for _, n := range names {
		s += fmt.Sprintf("  %-32s %10.3f ms\n", n, float64(self[n])/1e6)
	}
	return s
}
