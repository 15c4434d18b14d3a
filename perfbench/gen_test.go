package main

import (
	"strings"
	"testing"
)

func serveStream(seed int64, client, n int) string {
	g := newServeGen(seed, client, serveSessions)
	var b strings.Builder
	for s := 0; s < serveSessions; s++ {
		r := g.setup(s)
		b.WriteString(r.Input + "\x00" + r.Ref + "\n")
	}
	for i := 0; i < n; i++ {
		r := g.next()
		b.WriteString(r.Input + "\x00" + r.Ref + "\n")
	}
	return b.String()
}

func TestServeStreamIsSeeded(t *testing.T) {
	a, b := serveStream(3, 1, 2000), serveStream(3, 1, 2000)
	if a != b {
		t.Fatal("the same seed gave different serve streams")
	}
	if a == serveStream(4, 1, 2000) {
		t.Fatal("different seeds gave the same serve stream")
	}
	if a == serveStream(3, 0, 2000) {
		t.Fatal("different clients gave the same serve stream")
	}
}

func TestServeMixCoversEveryClass(t *testing.T) {
	g := newServeGen(1, 0, serveSessions)
	seen := map[string]int{}
	writes := 0
	const n = 20000
	for i := 0; i < n; i++ {
		r := g.next()
		seen[r.Class]++
		if r.Write {
			writes++
		}
	}
	total := 0
	for _, m := range serveMix {
		total += m.weight
		if seen[m.class] == 0 {
			t.Errorf("class %s never generated", m.class)
		}
	}
	if total != 1000 {
		t.Errorf("weights sum to %d, want 1000", total)
	}
	if frac := float64(writes) / n; frac < 0.08 || frac > 0.12 {
		t.Errorf("write fraction %.3f, want about 0.10", frac)
	}
}

func TestPromoteSequenceIsSeeded(t *testing.T) {
	flat := func(seed int64) string {
		var b strings.Builder
		for _, round := range promoteSequence(seed, 50) {
			for _, c := range round {
				b.WriteString(c.Input + "\n")
			}
		}
		return b.String()
	}
	if flat(9) != flat(9) {
		t.Fatal("the same seed gave different promote sequences")
	}
	if flat(9) == flat(10) {
		t.Fatal("different seeds gave the same promote sequence")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %v, want 3", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Fatalf("q1 = %v, want 2", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	if g := geomean([]float64{2, 8}); g < 3.999 || g > 4.001 {
		t.Fatalf("geomean = %v, want 4", g)
	}
}
