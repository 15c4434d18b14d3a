package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeNoChildren(t *testing.T) {
	self := selfTimes([]span{{ID: 1, Start: 10, End: 50}})
	if self[1] != 40 {
		t.Fatalf("self = %d, want 40", self[1])
	}
}

func TestSelfTimeDisjointChildren(t *testing.T) {
	self := selfTimes([]span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 20},
		{ID: 3, Parent: 1, Start: 50, End: 80},
	})
	if self[1] != 60 {
		t.Fatalf("parent self = %d, want 60", self[1])
	}
	if self[2] != 10 || self[3] != 30 {
		t.Fatalf("child self = %d, %d, want 10, 30", self[2], self[3])
	}
}

// Overlapping children cover their union once, not the sum of their
// durations.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	self := selfTimes([]span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 60},
		{ID: 3, Parent: 1, Start: 40, End: 70},
		{ID: 4, Parent: 1, Start: 20, End: 30}, // inside child 2
	})
	if self[1] != 40 { // 100 - union [10, 70)
		t.Fatalf("parent self = %d, want 40", self[1])
	}
}

// A background child that outlives its parent (an asynchronous compile
// started by a call) only covers the parent while the parent is open.
func TestSelfTimeChildOutlivesParent(t *testing.T) {
	self := selfTimes([]span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 80, End: 500},
		{ID: 3, Parent: 1, Start: -20, End: 10}, // starts before the parent
	})
	if self[1] != 70 { // 100 - [80, 100) - [0, 10)
		t.Fatalf("parent self = %d, want 70", self[1])
	}
	if self[2] != 420 {
		t.Fatalf("background child self = %d, want 420", self[2])
	}
}

// A child wholly outside its parent's interval covers nothing.
func TestSelfTimeChildOutsideParent(t *testing.T) {
	self := selfTimes([]span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 150, End: 300},
	})
	if self[1] != 100 {
		t.Fatalf("parent self = %d, want 100", self[1])
	}
}

func TestSelfTimeNested(t *testing.T) {
	st := newSpanStats([]span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "serve.handler", Start: 20, End: 90},
		{ID: 3, Parent: 2, Name: "engine.eval", Start: 20, End: 60},
	})
	if got := st.medianSelfUS("request", ""); got != 0.030 {
		t.Fatalf("request self = %v µs, want 0.030", got)
	}
	if got := st.medianSelfUS("serve.handler", ""); got != 0.030 {
		t.Fatalf("handler self = %v µs, want 0.030", got)
	}
	if got := st.medianDurUS("engine.eval", ""); got != 0.040 {
		t.Fatalf("eval dur = %v µs, want 0.040", got)
	}
}

func TestRecorderWritesOnce(t *testing.T) {
	r := newRecorder()
	parent := r.newID()
	r.add(span{Parent: parent, Op: 7, Name: "child", Start: 5, End: 9})
	r.add(span{ID: parent, Op: 7, Name: "root", Start: 0, End: 10})
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []span
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Parent != got[1].ID || got[1].ID != parent {
		t.Fatalf("spans = %+v", got)
	}
	var nilRec *recorder
	if nilRec.add(span{}) != 0 || nilRec.newID() != 0 || nilRec.write(path) != nil {
		t.Fatal("nil recorder must record nothing")
	}
}
