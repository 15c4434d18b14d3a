package core

import (
	"io"
	"strings"
	"sync"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/kernel"
)

// tieredBareKernel is a kernel with FunctionCompile and tiering installed
// and nothing else: no engine, so its function registry is the one the
// kernel creates for itself.
func tieredBareKernel(t *testing.T, def string) (*kernel.Kernel, *Tiering) {
	t.Helper()
	k := kernel.New()
	k.Out = io.Discard
	Install(k)
	tr := EnableTiering(k, TierPolicy{Threshold: 4, Workers: 1})
	t.Cleanup(tr.Close)
	runK(t, k, def)
	return k, tr
}

// feedF drives enough rounds of f[1..6] for the definition to promote
// interpreter → stencil → O2, collecting every result.
func feedF(t *testing.T, k *kernel.Kernel, tr *Tiering) []string {
	var outs []string
	for round := 0; round < 6; round++ {
		for i := 1; i <= 6; i++ {
			out, err := k.Run(expr.NewS("f", expr.FromInt64(int64(i))))
			if err != nil {
				t.Errorf("f[%d]: %v", i, err)
				return outs
			}
			outs = append(outs, expr.InputForm(out))
		}
		tr.WaitIdle()
	}
	return outs
}

// TestBareKernelsOwnRegistries: two bare tiered kernels in one process
// promote the same symbol name with different definitions, concurrently.
// Each kernel owns its function registry, so each holds its own entry for
// f and produces exactly the results of a solo run.
func TestBareKernelsOwnRegistries(t *testing.T) {
	defs := []string{"f[n_] := 2*n + 1", "f[n_] := n*n - 1"}
	want := make([][]string, len(defs))
	for i, def := range defs {
		k, tr := tieredBareKernel(t, def)
		want[i] = feedF(t, k, tr)
	}

	ks := make([]*kernel.Kernel, len(defs))
	trs := make([]*Tiering, len(defs))
	for i, def := range defs {
		ks[i], trs[i] = tieredBareKernel(t, def)
	}
	got := make([][]string, len(defs))
	var wg sync.WaitGroup
	for i := range defs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = feedF(t, ks[i], trs[i])
		}(i)
	}
	wg.Wait()

	for i := range defs {
		if strings.Join(got[i], ",") != strings.Join(want[i], ",") {
			t.Errorf("kernel %d diverged from its solo run:\n got %v\nwant %v", i, got[i], want[i])
		}
		s := trs[i].Stats()
		if s.Promotions == 0 || s.StencilPromotions == 0 || s.Upgrades == 0 {
			t.Errorf("kernel %d: f did not ride interpreter → stencil → O2: %+v", i, s)
		}
	}
	entA, okA := registryOf(ks[0]).Lookup("f")
	entB, okB := registryOf(ks[1]).Lookup("f")
	if !okA || !okB || !entA.Installed() || !entB.Installed() {
		t.Fatalf("each kernel needs its own installed entry for f (A %v, B %v)", okA, okB)
	}
	if entA == entB {
		t.Fatal("two bare kernels share one registry entry for f")
	}
	// Each entry runs its own kernel's definition.
	for i, ent := range []*fnreg.Entry{entA, entB} {
		want := []string{"11", "24"}[i]
		out, err := ent.Binding().Payload.(*CompiledCodeFunction).Apply([]expr.Expr{expr.FromInt64(5)})
		if err != nil {
			t.Fatal(err)
		}
		if expr.InputForm(out) != want {
			t.Errorf("kernel %d's registry entry computes f[5] = %s, want %s", i, expr.InputForm(out), want)
		}
	}
}
