package core

import (
	"testing"
	"time"

	"wolfc/internal/parser"
)

// Copy-and-patch baseline tier tests (ISSUE 6): the stencil backend must be
// bit-identical to the full pipeline on the scalar fragment it covers, and
// must reject — not miscompile — everything outside it.

func newStencilCompiler() *Compiler {
	c := newCompiler()
	c.Stencil = true
	return c
}

// TestStencilDifferential compiles the same source through the stencil
// backend and the full optimising pipeline and demands byte-identical
// results. Covers arithmetic, mixed int/real, comparisons, branches/phis,
// elementary functions, and integer bit operations.
func TestStencilDifferential(t *testing.T) {
	cases := []struct {
		src  string
		args [][]string
	}{
		{`Function[{Typed[x, "MachineInteger"], Typed[y, "MachineInteger"]}, x*y + x - y]`,
			[][]string{{"7", "3"}, {"-4", "9"}}},
		{`Function[{Typed[x, "Real64"], Typed[y, "Real64"]}, (x + y)*(x - y)/y]`,
			[][]string{{"2.5", "1.25"}, {"-3.5", "0.5"}}},
		{`Function[{Typed[x, "MachineInteger"], Typed[y, "Real64"]}, x + y*2.0 - x/y]`,
			[][]string{{"3", "1.5"}}},
		{`Function[{Typed[n, "MachineInteger"]}, If[n > 3, n*2, n - 1]]`,
			[][]string{{"7"}, {"2"}}},
		{`Function[{Typed[n, "MachineInteger"]}, n >= 4 && EvenQ[n]]`,
			[][]string{{"6"}, {"3"}, {"5"}}},
		{`Function[{Typed[x, "Real64"]}, Sin[x] + Cos[x]*Sqrt[x] + Exp[x]/Log[x + 2.0]]`,
			[][]string{{"1.7"}, {"0.3"}}},
		{`Function[{Typed[n, "MachineInteger"], Typed[m, "MachineInteger"]}, Max[Mod[n, m], Quotient[n, m]] + Abs[n - m]^2]`,
			[][]string{{"17", "5"}, {"-9", "4"}}},
		{`Function[{Typed[x, "Real64"]}, Floor[x] + Ceiling[x]*Round[x]]`,
			[][]string{{"2.6"}, {"-1.3"}}},
		{`Function[{Typed[n, "MachineInteger"], Typed[m, "MachineInteger"]}, BitAnd[n, m] + BitOr[n, 3] - BitXor[m, 5]]`,
			[][]string{{"12", "10"}}},
		{`Function[{Typed[x, "Real64"], Typed[n, "MachineInteger"]}, x^n + 2^n + x^2.0]`,
			[][]string{{"1.5", "3"}}},
	}
	sc, fc := newStencilCompiler(), newCompiler()
	for _, cse := range cases {
		sccf, err := sc.FunctionCompile(parser.MustParse(cse.src))
		if err != nil {
			t.Fatalf("stencil compile %s: %v", cse.src, err)
		}
		fccf := compile(t, fc, cse.src)
		for _, args := range cse.args {
			got := apply(t, sccf, args...)
			want := apply(t, fccf, args...)
			if got != want {
				t.Errorf("%s %v: stencil %s, full %s", cse.src, args, got, want)
			}
		}
	}
}

// TestStencilRecursion covers the self-recursion rewrite (CompileNamed):
// recursive calls become module-internal direct calls resolved at stencil
// assembly time.
func TestStencilRecursion(t *testing.T) {
	src := `Function[{Typed[n, "MachineInteger"]}, If[n < 2, n, sfib[n - 1] + sfib[n - 2]]]`
	sc, fc := newStencilCompiler(), newCompiler()
	sccf, err := sc.CompileNamed("sfib", parser.MustParse(src))
	if err != nil {
		t.Fatalf("stencil compile: %v", err)
	}
	fccf, err := fc.CompileNamed("sfib", parser.MustParse(src))
	if err != nil {
		t.Fatalf("full compile: %v", err)
	}
	for _, n := range []string{"0", "1", "10", "20"} {
		got, want := apply(t, sccf, n), apply(t, fccf, n)
		if got != want {
			t.Errorf("sfib[%s]: stencil %s, full %s", n, got, want)
		}
	}
}

// TestStencilUnsupportedFallsOut: sources outside the machine-scalar
// fragment must fail stencil compilation (the tiering engine then takes
// the full pipeline) — never produce wrong code.
func TestStencilUnsupportedFallsOut(t *testing.T) {
	unsupported := []string{
		// List construction is outside the stencil fragment.
		`Function[{Typed[n, "MachineInteger"]}, {n, n + 1}]`,
		// Closures are outside the fragment.
		`Function[{Typed[n, "MachineInteger"]}, Function[{Typed[m, "MachineInteger"]}, m + n][n]]`,
	}
	sc, fc := newStencilCompiler(), newCompiler()
	for _, src := range unsupported {
		if _, err := sc.FunctionCompile(parser.MustParse(src)); err == nil {
			t.Errorf("stencil compile of %s unexpectedly succeeded", src)
		}
		// The full pipeline must still take it (so tiering's fallback works).
		if _, err := fc.FunctionCompile(parser.MustParse(src)); err != nil {
			t.Errorf("full compile of %s failed: %v", src, err)
		}
	}
}

// TestStencilCompileLatency is a coarse in-suite guard for the point of the
// baseline tier: stencil compilation must be well under the full pipeline
// (the strict ≥10× gate runs in scripts/verify.sh over the corpus, where
// timing is best-of-N; here a conservative 3× bound avoids flakes).
func TestStencilCompileLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	src := `Function[{Typed[n, "MachineInteger"]}, If[n < 2, n, slat[n - 1] + slat[n - 2]]]`
	fn := parser.MustParse(src)
	sc, fc := newStencilCompiler(), newCompiler()
	// Warm both paths once (lazy init, first-touch allocation).
	if _, err := sc.CompileNamed("slat", fn); err != nil {
		t.Fatalf("stencil compile: %v", err)
	}
	if _, err := fc.CompileNamed("slat", fn); err != nil {
		t.Fatalf("full compile: %v", err)
	}
	best := func(c *Compiler) time.Duration {
		b := time.Hour
		for i := 0; i < 10; i++ {
			t0 := time.Now()
			if _, err := c.CompileNamed("slat", fn); err != nil {
				t.Fatalf("compile: %v", err)
			}
			if d := time.Since(t0); d < b {
				b = d
			}
		}
		return b
	}
	st, full := best(sc), best(fc)
	if st*3 > full {
		t.Errorf("stencil compile %v not ≥3× faster than full pipeline %v", st, full)
	}
	t.Logf("stencil %v, full pipeline %v (%.1fx)", st, full, float64(full)/float64(st))
}

func BenchmarkStencilCompile(b *testing.B) {
	fn := parser.MustParse(`Function[{Typed[n, "MachineInteger"]}, If[n < 2, n, sbf[n - 1] + sbf[n - 2]]]`)
	c := newStencilCompiler()
	if _, err := c.CompileNamed("sbf", fn); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CompileNamed("sbf", fn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullCompile(b *testing.B) {
	fn := parser.MustParse(`Function[{Typed[n, "MachineInteger"]}, If[n < 2, n, sbf[n - 1] + sbf[n - 2]]]`)
	c := newCompiler()
	if _, err := c.CompileNamed("sbf", fn); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CompileNamed("sbf", fn); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCompiledShiftsRevertOnOverflow: a shift whose machine result would
// be wrong (bits lost, sign changed, negative count) throws, so the call
// reverts to the interpreter on both tiers and returns its answer.
func TestCompiledShiftsRevertOnOverflow(t *testing.T) {
	cases := []struct{ head, a, n, want string }{
		{"BitShiftLeft", "1", "64", "18446744073709551616"},
		{"BitShiftLeft", "1", "63", "9223372036854775808"},
		{"BitShiftLeft", "8", "-1", "BitShiftLeft[8, -1]"},
		{"BitShiftRight", "8", "-1", "BitShiftRight[8, -1]"},
		{"BitShiftLeft", "-3", "2", "-12"},
		{"BitShiftRight", "-8", "70", "-1"},
	}
	for _, c := range []*Compiler{newStencilCompiler(), newCompiler()} {
		for _, cse := range cases {
			ccf := compile(t, c, `Function[{Typed[a, "MachineInteger"], Typed[n, "MachineInteger"]}, `+cse.head+`[a, n]]`)
			if got := apply(t, ccf, cse.a, cse.n); got != cse.want {
				t.Errorf("stencil=%v %s[%s, %s] = %s, want %s", c.Stencil, cse.head, cse.a, cse.n, got, cse.want)
			}
		}
	}
}
