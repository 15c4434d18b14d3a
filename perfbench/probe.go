package main

import (
	"math/rand"
	gort "runtime"
	"slices"
	"strconv"
	"time"
)

// The host probe is a fixed piece of Go work that does not call the
// program under test and allocates nothing, so neither the program's heap
// nor its collector changes its time: a sort of 4096 strings and a lookup
// of each in a map, about 150 kB and 1 ms in all — comparisons, hashing and
// branches, like an interpreter's work. Timed between measurements, it
// follows how fast the shared host runs this kind of code at that moment.
var probeData = func() (d struct {
	keys, scratch []string
	index         map[string]int
}) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4096; i++ {
		d.keys = append(d.keys, strconv.FormatInt(rng.Int63(), 36))
	}
	d.scratch = make([]string, len(d.keys))
	d.index = map[string]int{}
	for i, k := range d.keys {
		d.index[k] = i
	}
	return d
}()

// probeSink keeps the probe's result live.
var probeSink int

func probeWork() {
	d := &probeData
	copy(d.scratch, d.keys)
	slices.Sort(d.scratch)
	for _, k := range d.scratch {
		probeSink += d.index[k]
	}
}

const (
	probeSegments = 5                     // a measured phase runs in this many parts, with probes after each
	probeBurst    = 5                     // probes timed after each part
	probePause    = 20 * time.Millisecond // before each burst
)

// hostProbe collects probe times (µs) over a run, and counts the
// collections it forced.
type hostProbe struct {
	samples     []float64
	collections uint32
}

// run times the probe n times, after a collection and a short pause that
// let the background work of the measurement before it — the collector's,
// the tier worker's — finish first.
func (h *hostProbe) run(n int) {
	gort.GC()
	h.collections++
	time.Sleep(probePause)
	for i := 0; i < n; i++ {
		t := time.Now()
		probeWork()
		h.samples = append(h.samples, us(time.Since(t)))
	}
}

func (h *hostProbe) median() float64 { return median(append([]float64(nil), h.samples...)) }
