package core

import (
	"fmt"
	"os"
	"sync"

	"wolfc/internal/expr"
	"wolfc/internal/kernel"
)

// Kernel integration (F1): FunctionCompile becomes a regular function of
// the language, and CompiledCodeFunction objects apply like any function.

var (
	ccfMu  sync.Mutex
	ccfTab = map[int64]*CompiledCodeFunction{}
	ccfSeq int64
)

func registerCCF(ccf *CompiledCodeFunction) int64 {
	ccfMu.Lock()
	defer ccfMu.Unlock()
	ccfSeq++
	ccfTab[ccfSeq] = ccf
	return ccfSeq
}

// LookupCCF returns a registered compiled function by id.
func LookupCCF(id int64) (*CompiledCodeFunction, bool) {
	ccfMu.Lock()
	defer ccfMu.Unlock()
	c, ok := ccfTab[id]
	return c, ok
}

var symCCF = expr.Sym("CompiledCodeFunction")

// Install registers FunctionCompile and the CompiledCodeFunction applier in
// the kernel, returning the compiler instance used (so callers can extend
// its environments). Compiles resolve against the kernel's own function
// registry.
func Install(k *kernel.Kernel) *Compiler {
	c := NewCompiler(k)
	k.Register("FunctionCompile", 0, func(k *kernel.Kernel, n *expr.Normal) (expr.Expr, bool) {
		if n.Len() < 1 {
			return n, false
		}
		// Route through the process-wide cache so repeated FunctionCompile
		// of the same source under unchanged environments is free.
		ccf, err := c.FunctionCompileCached(n.Arg(1))
		if err != nil {
			fmt.Fprintf(k.Out, "FunctionCompile::cmperr: %v\n", err)
			return expr.SymFailed, true
		}
		id := registerCCF(ccf)
		return expr.New(symCCF, expr.FromInt64(id), n.Arg(1)), true
	})
	// §A.6's inspection functions, usable inside the language.
	k.Register("CompileToAST", 0, func(k *kernel.Kernel, n *expr.Normal) (expr.Expr, bool) {
		if n.Len() != 1 {
			return n, false
		}
		out, err := c.ExpandAST(n.Arg(1))
		if err != nil {
			fmt.Fprintf(k.Out, "CompileToAST::err: %v\n", err)
			return expr.SymFailed, true
		}
		return expr.NewS("Hold", out), true
	})
	k.Register("CompileToIR", 0, func(k *kernel.Kernel, n *expr.Normal) (expr.Expr, bool) {
		if n.Len() < 1 {
			return n, false
		}
		// CompileToIR[fn] gives TWIR; CompileToIR[fn, "OptimizationLevel" -> None]
		// (any second argument) gives the untyped WIR, as in the artifact.
		if n.Len() >= 2 {
			mod, err := c.BuildWIR(n.Arg(1))
			if err != nil {
				fmt.Fprintf(k.Out, "CompileToIR::err: %v\n", err)
				return expr.SymFailed, true
			}
			return expr.FromString(mod.String()), true
		}
		// The default form shows the fully resolved, optimised TWIR, as
		// the artifact's CompileToIR[addOne] does.
		ccf, err := c.FunctionCompile(n.Arg(1))
		if err != nil {
			fmt.Fprintf(k.Out, "CompileToIR::err: %v\n", err)
			return expr.SymFailed, true
		}
		return expr.FromString(ccf.Module.String()), true
	})
	k.Register("FunctionCompileExportString", 0, func(k *kernel.Kernel, n *expr.Normal) (expr.Expr, bool) {
		if n.Len() != 2 {
			return n, false
		}
		format, ok := n.Arg(2).(*expr.String)
		if !ok {
			return n, false
		}
		target := n.Arg(1)
		// Accept either a function expression or a CompiledCodeFunction.
		var ccf *CompiledCodeFunction
		if cfHead, isCF := expr.IsNormalN(target, symCCF, 2); isCF {
			if id, isInt := cfHead.Arg(1).(*expr.Integer); isInt && id.IsMachine() {
				ccf, _ = LookupCCF(id.Int64())
			}
		}
		if ccf == nil {
			var err error
			ccf, err = c.FunctionCompile(target)
			if err != nil {
				fmt.Fprintf(k.Out, "FunctionCompileExportString::err: %v\n", err)
				return expr.SymFailed, true
			}
		}
		out, err := ccf.ExportString(format.V)
		if err != nil {
			fmt.Fprintf(k.Out, "FunctionCompileExportString::err: %v\n", err)
			return expr.SymFailed, true
		}
		return expr.FromString(out), true
	})
	// §4.6: ahead-of-time library export and reload, by file path.
	k.Register("FunctionCompileExportLibrary", 0, func(k *kernel.Kernel, n *expr.Normal) (expr.Expr, bool) {
		if n.Len() != 2 {
			return n, false
		}
		path, ok := n.Arg(1).(*expr.String)
		if !ok {
			return n, false
		}
		var ccf *CompiledCodeFunction
		if cfHead, isCF := expr.IsNormalN(n.Arg(2), symCCF, 2); isCF {
			if id, isInt := cfHead.Arg(1).(*expr.Integer); isInt && id.IsMachine() {
				ccf, _ = LookupCCF(id.Int64())
			}
		}
		if ccf == nil {
			var err error
			ccf, err = c.FunctionCompile(n.Arg(2))
			if err != nil {
				fmt.Fprintf(k.Out, "FunctionCompileExportLibrary::err: %v\n", err)
				return expr.SymFailed, true
			}
		}
		f, err := os.Create(path.V)
		if err != nil {
			fmt.Fprintf(k.Out, "FunctionCompileExportLibrary::err: %v\n", err)
			return expr.SymFailed, true
		}
		defer f.Close()
		if err := ccf.ExportLibrary(f); err != nil {
			fmt.Fprintf(k.Out, "FunctionCompileExportLibrary::err: %v\n", err)
			return expr.SymFailed, true
		}
		return path, true
	})
	k.Register("LibraryFunctionLoad", 0, func(k *kernel.Kernel, n *expr.Normal) (expr.Expr, bool) {
		if n.Len() != 1 {
			return n, false
		}
		path, ok := n.Arg(1).(*expr.String)
		if !ok {
			return n, false
		}
		f, err := os.Open(path.V)
		if err != nil {
			fmt.Fprintf(k.Out, "LibraryFunctionLoad::err: %v\n", err)
			return expr.SymFailed, true
		}
		defer f.Close()
		ccf, err := LoadCompiledLibrary(c, f, false)
		if err != nil {
			fmt.Fprintf(k.Out, "LibraryFunctionLoad::err: %v\n", err)
			return expr.SymFailed, true
		}
		id := registerCCF(ccf)
		return expr.New(symCCF, expr.FromInt64(id), expr.FromString(path.V)), true
	})
	k.RegisterApplier("CompiledCodeFunction", func(k *kernel.Kernel, head *expr.Normal, args []expr.Expr) (expr.Expr, bool) {
		if head.Len() != 2 {
			return nil, false
		}
		idE, ok := head.Arg(1).(*expr.Integer)
		if !ok || !idE.IsMachine() {
			return nil, false
		}
		ccf, found := LookupCCF(idE.Int64())
		if !found {
			// Stale object (e.g. from a serialised session): evaluate the
			// stored source instead.
			return k.Eval(expr.New(head.Arg(2), args...)), true
		}
		out, err := ccf.Apply(args)
		if err != nil {
			fmt.Fprintf(k.Out, "CompiledCodeFunction::err: %v\n", err)
			return expr.SymFailed, true
		}
		return out, true
	})
	return c
}
