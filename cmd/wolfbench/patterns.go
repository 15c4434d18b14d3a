package main

// The pattern-dispatch suite (ISSUE 10): DownValue definitions that only
// the decision-tree lowering can promote — _Integer blanks with /; guards,
// list destructuring — timed interpreted vs tiered with bit-identical
// results, plus a symbolic-differentiation workload whose arguments never
// sketch to machine kinds: it must stay on the interpreter and the tiered
// kernel must not tax it (the dispatch hook's sketch rejects symbolic
// arguments in O(1)).

import (
	"fmt"
	"io"
	"os"
	"time"

	"wolfc/internal/core"
	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
)

func patternsSuite() {
	fmt.Println("=== Pattern dispatch: guarded DownValues compiled to decision trees ===")

	mustRun := func(k *kernel.Kernel, e expr.Expr) expr.Expr {
		out, err := k.Run(e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wolfbench: patterns: %s: %v\n", expr.InputForm(e), err)
			os.Exit(1)
		}
		return out
	}
	newPair := func(defs []string) (*kernel.Kernel, *kernel.Kernel, *core.Tiering) {
		ik := kernel.New()
		ik.Out = io.Discard
		core.Install(ik)
		tk := kernel.New()
		tk.Out = io.Discard
		core.Install(tk)
		tr := core.EnableTiering(tk, core.TierPolicy{Threshold: 5})
		for _, d := range defs {
			p := parser.MustParse(d)
			mustRun(ik, p)
			mustRun(tk, p)
		}
		return ik, tk, tr
	}

	type row struct {
		name    string
		defs    []string
		call    string
		size    int
		warmups int
		// promoted: the workload's head must reach a compiled tier
		// (false for the symbolic workload, which must not promote).
		promote string
	}
	rows := []row{
		{
			// The acceptance workload: _Integer blanks plus a /; guard.
			// The recursion re-enters the dispatch tree on every level, so
			// the whole speedup rides on compiled pattern dispatch.
			name: "patterns_gfib",
			defs: []string{
				`gfib[n_Integer /; n < 2] := n`,
				`gfib[n_Integer] := gfib[n - 1] + gfib[n - 2]`,
			},
			call: "gfib[22]", size: 22, warmups: 1, promote: "gfib",
		},
		{
			// List destructuring: each call pays match-vs-tree on a
			// 2-element machine list.
			name: "patterns_dot2",
			defs: []string{
				`dot2[{a_, b_}, {c_, d_}] := a*c + b*d`,
				`dotn[n_Integer] := If[n == 0, 0, dot2[{n, n + 1}, {2, 3}] + dotn[n - 1]]`,
			},
			call: "dotn[400]", size: 400, warmups: 6, promote: "dot2",
		},
		{
			// Symbolic differentiation: arguments are expressions, never
			// machine kinds, so the definition must stay interpreted and
			// cost the same on both kernels (the no-regression row).
			name: "patterns_deriv",
			defs: []string{
				`d[x_, x_] := 1`,
				`d[c_Integer, x_] := 0`,
				`d[u_ + v_, x_] := d[u, x] + d[v, x]`,
				`d[u_*v_, x_] := d[u, x]*v + u*d[v, x]`,
				`d[u_^n_Integer, x_] := n*u^(n - 1)*d[u, x]`,
			},
			call: "d[(x^5)*(x^3 + x^2), x]", size: 5, warmups: 6, promote: "",
		},
	}

	fmt.Printf("%-18s %-14s %14s %10s\n", "benchmark", "implementation", "time/op", "speedup")
	for _, r := range rows {
		ik, tk, tr := newPair(r.defs)
		call := parser.MustParse(r.call)

		interpOut := mustRun(ik, call)
		interpSum := expr.InputForm(interpOut)
		interpNs := measure(func() string { mustRun(ik, call); return interpSum }, 300*time.Millisecond)
		record(r.name, "interpreter", 0, r.size, interpNs, interpSum)

		for i := 0; i < r.warmups; i++ {
			mustRun(tk, call)
		}
		tr.WaitIdle()
		if r.promote != "" && !tr.Compiled(expr.Sym(r.promote)) {
			fmt.Fprintf(os.Stderr, "wolfbench: patterns: %s was not promoted; stats %+v\n", r.promote, tr.Stats())
			os.Exit(1)
		}
		if r.promote == "" && tr.Stats().Promotions != 0 {
			fmt.Fprintf(os.Stderr, "wolfbench: patterns: symbolic workload promoted; stats %+v\n", tr.Stats())
			os.Exit(1)
		}
		tieredOut := mustRun(tk, call)
		tieredSum := expr.InputForm(tieredOut)
		if tieredSum != interpSum {
			fmt.Fprintf(os.Stderr, "wolfbench: patterns: %s tiered = %s, interpreter = %s\n", r.name, tieredSum, interpSum)
			os.Exit(1)
		}
		tieredNs := measure(func() string { mustRun(tk, call); return tieredSum }, 300*time.Millisecond)
		record(r.name, "tiered", 0, r.size, tieredNs, tieredSum)

		fmt.Printf("%-18s %-14s %14s %10s   checksum %s\n", r.name, "interpreter", fmtNs(interpNs), "1.0x", interpSum)
		fmt.Printf("%-18s %-14s %14s %9.1fx\n", r.name, "tiered", fmtNs(tieredNs), interpNs/tieredNs)
		s := tr.Stats()
		fmt.Printf("%-18s %d promoted, %d compiled dispatches, %d guard misses, %d soft fallbacks\n",
			"", s.Promotions, s.CompiledCalls, s.GuardMisses, s.SoftFallbacks)
		tr.Close()
	}
	fmt.Println()
}
