package main

import (
	"math"
	"testing"
)

func TestComposedEpisodeSumsStepMedians(t *testing.T) {
	runs := []episodeSteps{
		{[]float64{1, 10, 100}, 2},
		{[]float64{3, 30, 300}, 2}, // a slow episode moves no step's median
		{[]float64{2, 20, 200}, 2},
		{[]float64{9, 9, 9, 9}, 3}, // another shape, fewer episodes: left out
	}
	total, calls := composedEpisode(runs)
	if total != 222 || calls != 2 {
		t.Fatalf("composedEpisode = %v, %d; want 222, 2", total, calls)
	}
}

func TestComposedEpisodeTieTakesFewerSteps(t *testing.T) {
	runs := []episodeSteps{
		{[]float64{5, 5, 5}, 2},
		{[]float64{1, 1}, 1},
	}
	if total, calls := composedEpisode(runs); total != 2 || calls != 1 {
		t.Fatalf("composedEpisode = %v, %d; want 2, 1", total, calls)
	}
	if total, calls := composedEpisode(nil); total != 0 || calls != 0 {
		t.Fatalf("composedEpisode(nil) = %v, %d; want 0, 0", total, calls)
	}
}

func TestNormaliseScalesTimesAndRates(t *testing.T) {
	e := metrics{}
	e.set("setup_s", 0.2, "s")
	e.set("p50_ms", 4, "ms")
	e.set("write_ms", 8, "ms")
	e.set("hot_us", 10, "us")
	e.set("ops_per_s", 100, "1/s")
	e.set("vs_ref", 3, "x")
	e.set("peak_rss_mb", 50, "MB")
	layers := metrics{}
	// A host on which the probe takes twice the reference time: times
	// halve, rates double, the rest stays.
	normalise(e, layers, &hostProbe{samples: []float64{2 * probeRefUS, 2 * probeRefUS, 5 * probeRefUS}})
	want := map[string]float64{"setup_s": 0.1, "p50_ms": 2, "write_ms": 4, "hot_us": 5,
		"ops_per_s": 200, "vs_ref": 3, "peak_rss_mb": 50}
	for k, v := range want {
		if math.Abs(e[k].Value-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, e[k].Value, v)
		}
	}
	if layers["host.probe_us"].Value != 2*probeRefUS {
		t.Errorf("host.probe_us = %v, want %v", layers["host.probe_us"].Value, 2*probeRefUS)
	}
}
