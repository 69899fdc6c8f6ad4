package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10,50]; a third covers [60,70].
		{ID: 2, Parent: 1, Name: "work", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "work", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "io", Start: 60, End: 70},
		// A child running past its parent counts only inside it.
		{ID: 5, Parent: 4, Name: "disk", Start: 65, End: 90},
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{
		"root": 100 - 40 - 10, // minus the union [10,50] and [60,70]
		"work": 30 + 20,       // leaves
		"io":   10 - 5,        // minus [65,70]
		"disk": 25,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d", len(got), len(want))
	}
}

func TestRecorderNilAndClosedSpans(t *testing.T) {
	var nilRec *Recorder
	nilRec.Finish(nilRec.Begin("x", 0, 0))
	if nilRec.Spans() != nil {
		t.Fatal("a nil recorder must record nothing")
	}
	r := NewRecorder()
	a := r.Begin("a", 0, 7)
	b := r.Begin("b", a, 7)
	r.Finish(b)
	spans := r.Spans()
	if len(spans) != 1 || spans[0].Name != "b" || spans[0].Parent != a || spans[0].Req != 7 {
		t.Fatalf("only the closed child should be returned, got %+v", spans)
	}
	r.Finish(a)
	if len(r.Spans()) != 2 {
		t.Fatal("both spans closed")
	}
}

func TestRecorderDurationAndChildren(t *testing.T) {
	r := NewRecorder()
	top := r.Begin("top", 0, 0)
	a := r.Begin("a", top, 0)
	r.Finish(a)
	other := r.Begin("other", 0, 0)
	r.Finish(other)
	open := r.Begin("b", top, 0)
	if r.Duration(open) != 0 {
		t.Fatal("an open span has no duration yet")
	}
	r.Finish(open)
	r.Finish(top)
	kids := r.Children(top)
	if len(kids) != 2 || kids[0].ID != a || kids[1].ID != open {
		t.Fatalf("children of top = %+v, want spans %d and %d", kids, a, open)
	}
	var sum time.Duration
	for _, k := range kids {
		sum += r.Duration(k.ID)
	}
	if d := r.Duration(top); d < sum {
		t.Fatalf("parent lasted %v, less than its children's %v", d, sum)
	}
}
