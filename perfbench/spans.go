package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code. Parent 0 marks a root; Op is the request or episode the span
// belongs to. Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written once, at the end of
// the run. A nil recorder records nothing, so untraced runs pay one
// branch per call site.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now returns the current time on the recorder's clock.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// at converts a wall-clock time to the recorder's clock.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// newID reserves a span id, for callers that must hand the id to a child
// before the parent span has ended.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records s, assigning an id when s.ID is zero, and returns the id.
func (r *recorder) add(s span) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ID == 0 {
		r.next++
		s.ID = r.next
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write exports the spans as one JSON array.
func (r *recorder) write(path string) error {
	if r == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(r.snapshot()); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its own interval that its children cover. Children are clipped to the
// parent's interval, so a background child that outlives its parent only
// counts while the parent is open, and overlapping children count once.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// spanStats summarises recorded spans by name (and optional tag).
type spanStats struct {
	spans []span
	self  map[int64]int64
}

func newSpanStats(spans []span) spanStats { return spanStats{spans, selfTimes(spans)} }

// match reports whether s has the name and, when tag is non-empty, the tag.
func match(s span, name, tag string) bool { return s.Name == name && (tag == "" || s.Tag == tag) }

// medianDurUS is the median duration of the matching spans, in µs.
func (st spanStats) medianDurUS(name, tag string) float64 {
	var xs []float64
	for _, s := range st.spans {
		if match(s, name, tag) {
			xs = append(xs, float64(s.dur())/1e3)
		}
	}
	return median(xs)
}

// medianSelfUS is the median self time of the matching spans, in µs.
func (st spanStats) medianSelfUS(name, tag string) float64 {
	var xs []float64
	for _, s := range st.spans {
		if match(s, name, tag) {
			xs = append(xs, float64(st.self[s.ID])/1e3)
		}
	}
	return median(xs)
}
