package main

import (
	"testing"
	"time"
)

func TestSelfTimesOnHandBuiltTree(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "op", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(60)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)}, // outlasts op
		{ID: 5, Parent: 2, Name: "a1", Start: ms(15), End: ms(20)},
		{ID: 6, Name: "op", Start: ms(200), End: ms(210)}, // a leaf root
	}
	want := map[int64]time.Duration{
		1: ms(40), // 100 - |[10,60] ∪ [90,100]|
		2: ms(25),
		3: ms(30),
		4: ms(30),
		5: ms(5),
		6: ms(10),
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %v, want %v", id, got[id], w)
		}
	}
	byName := selfByName(spans)
	if byName["op"] != ms(50) || byName["a"] != ms(25) {
		t.Errorf("self by name = %v, want op 50ms and a 25ms", byName)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	called := false
	if err := tr.timed(tr.newID(), 1, "x", func() error { called = true; return nil }); err != nil || !called {
		t.Fatalf("nil tracer: err %v, called %v", err, called)
	}
}
