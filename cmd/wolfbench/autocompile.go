package main

// The tiered-execution suite (ISSUE 5): the same DownValue definitions are
// timed on a plain interpreter and on a kernel with -autocompile semantics
// (profile-guided promotion through the kernel's function registry), with the
// results required to be bit-identical. A second comparison shows what the
// registry buys a compiled caller: reaching the promoted definition as a
// direct unboxed call instead of a boxed KernelFunction escape.

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

func autocompileSuite() {
	fmt.Println("=== Tiered execution: hot DownValues auto-compiled through the function registry ===")

	const fibN = 22 // small enough for the interpreter series
	defs := []string{
		`fib[0] = 0`,
		`fib[1] = 1`,
		`fib[n_] := fib[n - 1] + fib[n - 2]`,
	}
	call := fmt.Sprintf("fib[%d]", fibN)

	mustRun := func(k *kernel.Kernel, src string) expr.Expr {
		out, err := k.Run(parser.MustParse(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "wolfbench: autocompile: %s: %v\n", src, err)
			os.Exit(1)
		}
		return out
	}

	// Interpreter baseline: pattern-matched dispatch on every call.
	ik := kernel.New()
	ik.Out = io.Discard
	core.Install(ik)
	for _, d := range defs {
		mustRun(ik, d)
	}
	interpOut := mustRun(ik, call)
	interpSum := expr.InputForm(interpOut)
	interpNs := measure(func() string { mustRun(ik, call); return interpSum }, 300*time.Millisecond)
	record("autocompile_fib", "interpreter", 0, fibN, interpNs, interpSum)

	// Tiered kernel: the warm-up run alone crosses the threshold, the
	// background worker installs the compiled entry, and dispatch goes
	// through the registry from then on.
	tk := kernel.New()
	tk.Out = io.Discard
	core.Install(tk)
	tr := core.EnableTiering(tk, core.TierPolicy{Threshold: 5})
	defer tr.Close()
	for _, d := range defs {
		mustRun(tk, d)
	}
	mustRun(tk, call)
	tr.WaitIdle()
	if !tr.Compiled(expr.Sym("fib")) {
		fmt.Fprintf(os.Stderr, "wolfbench: autocompile: fib was not promoted; stats %+v\n", tr.Stats())
		os.Exit(1)
	}
	tieredOut := mustRun(tk, call)
	tieredSum := expr.InputForm(tieredOut)
	if tieredSum != interpSum {
		fmt.Fprintf(os.Stderr, "wolfbench: autocompile: tiered fib = %s, interpreter = %s\n", tieredSum, interpSum)
		os.Exit(1)
	}
	tieredNs := measure(func() string { mustRun(tk, call); return tieredSum }, 300*time.Millisecond)
	record("autocompile_fib", "tiered", 0, fibN, tieredNs, tieredSum)

	fmt.Printf("%-22s %-16s %14s %10s   checksum %s\n", "benchmark", "implementation", "time/op", "speedup", interpSum)
	fmt.Printf("%-22s %-16s %14s %10s\n", "fib (DownValues)", "interpreter", fmtNs(interpNs), "1.0x")
	fmt.Printf("%-22s %-16s %14s %9.1fx\n", "fib (DownValues)", "tiered", fmtNs(tieredNs), interpNs/tieredNs)
	fmt.Println()

	// Cross-unit calls: a separately compiled caller reaches the promoted
	// fib either through the registry (resolved at compile time to a direct
	// unboxed call) or through KernelFunction (boxed expressions through the
	// evaluator, which then re-dispatches into the same compiled fib).
	// Each caller makes n calls with small, varying arguments, so the
	// per-call overhead (direct vs boxed) is what gets measured rather than
	// the shared compiled fib recursion.
	const crossCalls = 20_000
	c := core.NewCompiler(tk)
	regCaller, err := c.FunctionCompileRequest(
		parser.MustParse(`Function[{Typed[n, "Integer64"]},
			Module[{s = 0, i = 1}, While[i <= n, s = s + fib[Mod[i, 8]]; i++]; s]]`),
		core.CompileRequest{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wolfbench: autocompile: registry caller: %v\n", err)
		os.Exit(1)
	}
	registryCalls := 0
	for _, f := range regCaller.Module.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.CallKind() == "registry" {
					registryCalls++
				}
			}
		}
	}
	if registryCalls == 0 {
		fmt.Fprintln(os.Stderr, "wolfbench: autocompile: caller did not resolve fib through the registry")
		os.Exit(1)
	}
	boxedCaller, err := c.FunctionCompileRequest(
		parser.MustParse(`Function[{Typed[n, "Integer64"]},
			Module[{s = 0, i = 1}, While[i <= n, s = s + KernelFunction[fib][Mod[i, 8]]; i++]; s]]`),
		core.CompileRequest{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wolfbench: autocompile: boxed caller: %v\n", err)
		os.Exit(1)
	}
	apply := func(ccf *core.CompiledCodeFunction) string {
		out, err := ccf.Apply([]expr.Expr{expr.FromInt64(crossCalls)})
		if err != nil {
			fmt.Fprintf(os.Stderr, "wolfbench: autocompile: cross-unit call: %v\n", err)
			os.Exit(1)
		}
		return expr.InputForm(out)
	}
	regSum := apply(regCaller)
	boxedSum := apply(boxedCaller)
	if regSum != boxedSum {
		fmt.Fprintf(os.Stderr, "wolfbench: autocompile: registry call = %s, boxed call = %s\n", regSum, boxedSum)
		os.Exit(1)
	}
	regNs := measure(func() string { return apply(regCaller) }, 300*time.Millisecond)
	boxedNs := measure(func() string { return apply(boxedCaller) }, 300*time.Millisecond)
	record("autocompile_crossunit", "registry", 0, crossCalls, regNs, regSum)
	record("autocompile_crossunit", "kernelfunction", 0, crossCalls, boxedNs, boxedSum)
	fmt.Printf("cross-unit caller, %d fib calls (%d registry call sites), checksum %s\n", crossCalls, registryCalls, regSum)
	fmt.Printf("%-22s %-16s %14s %10s\n", "compiled caller", "registry", fmtNs(regNs), "1.0x")
	fmt.Printf("%-22s %-16s %14s %9.2fx\n", "compiled caller", "kernelfunction", fmtNs(boxedNs), boxedNs/regNs)

	s := tr.Stats()
	fmt.Printf("tiering: %d promoted, %d compiled dispatches, %d guard misses, %d soft fallbacks\n\n",
		s.Promotions, s.CompiledCalls, s.GuardMisses, s.SoftFallbacks)
}
