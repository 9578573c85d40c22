package main

import (
	"testing"
	"time"
)

func span(id, parent int, layer string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Layer: layer, Name: layer, Start: start, End: end}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		span(1, 0, "bench", 0, 100),
		// Overlapping children count once: [10,50] covers 40.
		span(2, 1, "engine", 10, 30),
		span(3, 1, "engine", 20, 50),
		// A child running past its parent's end is clipped: 10 of it.
		span(4, 1, "store", 90, 120),
		// A grandchild reduces its parent only, not the root.
		span(5, 3, "store", 25, 35),
		// A root with no children keeps its whole duration.
		span(6, 0, "compile", 200, 207),
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 7}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	byLayer := selfByLayer(spans)
	for layer, w := range map[string]time.Duration{"bench": 50, "engine": 40, "store": 40, "compile": 7} {
		if byLayer[layer] != w {
			t.Errorf("layer %s: self %v, want %v", layer, byLayer[layer], w)
		}
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	id := tr.start(0, "bench", "x")
	tr.finish(id)
	if id != 0 || tr.closed() != nil {
		t.Fatal("a nil tracer must record nothing")
	}
}

func TestTracerRecords(t *testing.T) {
	tr := newTracer()
	root := tr.start(0, "bench", "pass")
	child := tr.start(root, "store", "get")
	tr.finish(child)
	open := tr.start(root, "store", "put") // never finished
	_ = open
	tr.finish(root)
	got := tr.closed()
	if len(got) != 2 || got[1].Parent != root || got[0].Name != "pass" {
		t.Fatalf("closed spans = %+v", got)
	}
}
