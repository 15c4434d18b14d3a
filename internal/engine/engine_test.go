package engine_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"wolfc/internal/core"
	"wolfc/internal/engine"
	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/numerics"
	"wolfc/internal/parser"
)

// tierPol promotes fast: stencil after 2 dispatches, O2 upgrade after 4
// compiled calls, single worker for determinism-friendly queues.
func tierPol() core.TierPolicy {
	return core.TierPolicy{Threshold: 4, Workers: 1}
}

// feed drives enough rounds of f[1..6] through e for the definition to
// promote interpreter → stencil → O2, collecting every printed result.
func feed(t *testing.T, e *engine.Engine) []string {
	t.Helper()
	var outs []string
	for round := 0; round < 6; round++ {
		for i := int64(1); i <= 6; i++ {
			res, err := e.Eval(fmt.Sprintf("f[%d]", i), 0)
			if err != nil {
				t.Fatalf("%s: f[%d]: %v", e.ID, i, err)
			}
			outs = append(outs, expr.InputForm(res.Value))
		}
		e.WaitIdle() // drain background compiles between rounds
	}
	return outs
}

// TestIsolationDifferential is the ISSUE 8 acceptance test: two engines in
// one process define the same symbol name with different bodies, both
// promote through stencil → O2 while running concurrently (under -race),
// and each produces bit-identical outputs to its own single-engine run.
func TestIsolationDifferential(t *testing.T) {
	defA := "f[n_] := 2*n + 1"
	defB := "f[n_] := n*n - 1"

	solo := func(def string) []string {
		e := engine.New(engine.Options{Tiering: true, Tier: tierPol()})
		defer e.Close()
		if _, err := e.Eval(def, 0); err != nil {
			t.Fatal(err)
		}
		return feed(t, e)
	}
	wantA, wantB := solo(defA), solo(defB)

	eA := engine.New(engine.Options{ID: "iso-a", Tiering: true, Tier: tierPol()})
	defer eA.Close()
	eB := engine.New(engine.Options{ID: "iso-b", Tiering: true, Tier: tierPol()})
	defer eB.Close()
	if _, err := eA.Eval(defA, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := eB.Eval(defB, 0); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var gotA, gotB []string
	wg.Add(2)
	go func() { defer wg.Done(); gotA = feed(t, eA) }()
	go func() { defer wg.Done(); gotB = feed(t, eB) }()
	wg.Wait()

	if strings.Join(gotA, ",") != strings.Join(wantA, ",") {
		t.Errorf("engine A diverged from its solo run:\n got %v\nwant %v", gotA, wantA)
	}
	if strings.Join(gotB, ",") != strings.Join(wantB, ",") {
		t.Errorf("engine B diverged from its solo run:\n got %v\nwant %v", gotB, wantB)
	}

	for _, e := range []*engine.Engine{eA, eB} {
		s := e.Stats()
		if s.Promotions == 0 {
			t.Errorf("%s: definition never promoted", e.ID)
		}
		if s.StencilPromotions == 0 {
			t.Errorf("%s: promotion skipped the stencil tier", e.ID)
		}
		if s.Upgrades == 0 {
			t.Errorf("%s: stencil entry never upgraded to O2", e.ID)
		}
	}

	// The namespaces must really be disjoint: each engine holds its own
	// live entry for "f", and a compile on a bare kernel sees neither.
	entA, okA := eA.Registry.Lookup("f")
	entB, okB := eB.Registry.Lookup("f")
	if !okA || !okB {
		t.Fatalf("expected a live registry entry for f in both engines (A %v, B %v)", okA, okB)
	}
	if entA == entB {
		t.Fatal("both engines share one registry entry for f")
	}
	bare := core.NewCompiler(kernel.New())
	if _, err := bare.FunctionCompile(parser.MustParse(`Function[{Typed[n, "MachineInteger"]}, f[n] + 1]`)); err == nil {
		t.Fatal("a bare kernel's compile resolved f through an engine's registry")
	}
}

// TestEvalTimeout checks that a request deadline rides the abort machinery:
// a runaway evaluation unwinds to $Aborted and is flagged as timed out.
func TestEvalTimeout(t *testing.T) {
	e := engine.New(engine.Options{})
	defer e.Close()
	start := time.Now()
	res, err := e.Eval("While[True, 1]", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if expr.InputForm(res.Value) != "$Aborted" {
		t.Fatalf("result = %s, want $Aborted", expr.InputForm(res.Value))
	}
	if !res.TimedOut {
		t.Fatal("TimedOut not set")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("abort took %v", d)
	}
	// The engine stays usable and the stale flag does not kill the next
	// evaluation.
	res, err = e.Eval("1 + 1", time.Second)
	if err != nil || expr.InputForm(res.Value) != "2" {
		t.Fatalf("post-timeout eval = %s, %v", expr.InputForm(res.Value), err)
	}
}

// TestOutputCapture checks Print output lands in Result.Output, per call.
func TestOutputCapture(t *testing.T) {
	e := engine.New(engine.Options{})
	defer e.Close()
	res, err := e.Eval(`Print["hello"]; 42`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "hello") {
		t.Fatalf("Output = %q, want it to contain hello", res.Output)
	}
	if expr.InputForm(res.Value) != "42" {
		t.Fatalf("Value = %s", expr.InputForm(res.Value))
	}
	res, err = e.Eval("1", 0)
	if err != nil || res.Output != "" {
		t.Fatalf("second eval Output = %q, want empty", res.Output)
	}
}

// TestCloseReleases checks engine shutdown frees what it owns: registry
// entries retire, kernel-associated state drops, Eval refuses.
func TestCloseReleases(t *testing.T) {
	e := engine.New(engine.Options{Tiering: true, Tier: tierPol()})
	if _, err := e.Eval("g[n_] := n + 7", 0); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := int64(0); i < 4; i++ {
			if _, err := e.Eval(fmt.Sprintf("g[%d]", i), 0); err != nil {
				t.Fatal(err)
			}
		}
		e.WaitIdle()
	}
	if len(e.Registry.Names()) == 0 {
		t.Fatal("expected a live registry entry before Close")
	}
	// An auto-compiled FindRoot memoises a numerics compiler on the kernel.
	x := expr.Sym("x")
	eq := expr.NewS("Plus", expr.NewS("Power", x, expr.FromInt64(2)), expr.FromInt64(-2))
	if _, err := numerics.FindRoot(e.Kernel, eq, x, 1.0, numerics.DefaultFindRootOptions()); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Kernel.Assoc("numerics.compiler"); !ok {
		t.Fatal("numerics compiler memo missing before Close")
	}
	e.Close()
	e.Close() // idempotent
	if n := len(e.Registry.Names()); n != 0 {
		t.Fatalf("%d registry entries survive Close", n)
	}
	if _, ok := e.Kernel.Assoc("numerics.compiler"); ok {
		t.Fatal("kernel assoc state survives Close")
	}
	if _, err := e.Eval("1", 0); err != engine.ErrClosed {
		t.Fatalf("Eval after Close = %v, want ErrClosed", err)
	}
}
