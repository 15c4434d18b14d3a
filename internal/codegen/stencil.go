// The baseline stencil backend (copy-and-patch, after Xu & Kjolstad 2021):
// each scalar TWIR instruction becomes one pre-built closure template — a
// "stencil" — with its frame slot indices patched in. The templates are the
// fused-tree builders of fusion.go (assignTo / buildEval*) composing no
// subtrees, so this tier and the optimising backend share one body per
// native: the stencil tier is a consumer of that library, not a copy of
// it. Compiling a function is a straight walk: gate the instruction to
// machine scalars, patch, append. No pass manager, no fusion — the price is
// that only the machine-scalar fragment is covered (the same fragment the
// tiering engine promotes), and steady-state code runs one closure per
// instruction like the FuseOff backend. The payoff is compile time: a
// front end that skipped the constraint solver (infer.Quick) lands stencil
// compiles one to two orders of magnitude below the full O2 pipeline.
//
// The output is an ordinary *Program of *CFuncs, so the fnreg lifecycle,
// guard-miss/overflow fallback, metrics, and the dispatch wrapper in
// internal/core work on stencil code unchanged.
package codegen

import (
	"fmt"

	"wolfc/internal/runtime"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// ErrStencilUnsupported wraps every coverage rejection so callers can fall
// back to the full pipeline (or the interpreter) without parsing messages.
var ErrStencilUnsupported = fmt.Errorf("instruction shape has no stencil")

func stencilErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrStencilUnsupported, fmt.Sprintf(format, args...))
}

// abortStencil is the fixed template for OpAbortCheck — no operands, so
// nothing to patch.
var abortStencil step = func(fr *frame) {
	if fr.rt.Aborted() {
		runtime.Throw(runtime.ExcAbort, "aborted")
	}
}

// patternMissStep is a dispatch-tree leaf no DownValue rule covers, shared
// by both tiers: it unwinds to the tier dispatcher, which hands the call to
// the interpreter rules (F2 guard miss). The operand is a dummy and the
// destination register is never written.
var patternMissStep step = func(fr *frame) {
	runtime.Throw(runtime.ExcNoMatch, "no matching DownValue rule")
}

// StencilCompile assembles a typed scalar module into a runnable Program,
// one patched stencil per instruction. Modules outside the covered fragment
// return an ErrStencilUnsupported-wrapped error; callers fall back to the
// full pipeline or stay on the interpreter.
func StencilCompile(mod *wir.Module) (*Program, error) {
	if !mod.Typed {
		return nil, fmt.Errorf("stencil: module is untyped; run inference first")
	}
	p := &Program{Module: mod, byName: map[string]*CFunc{}}
	for _, f := range mod.Funcs {
		cf := &CFunc{Name: f.Name}
		p.Funcs = append(p.Funcs, cf)
		p.byName[f.Name] = cf
	}
	for i, f := range mod.Funcs {
		g := &gen{prog: p, fn: f, cf: p.Funcs[i], regs: map[wir.Value]reg{}}
		if err := stencilAssemble(g); err != nil {
			return nil, err
		}
	}
	p.Main = p.byName["Main"]
	if p.Main == nil && len(p.Funcs) > 0 {
		p.Main = p.Funcs[0]
	}
	return p, nil
}

// stencilAssemble walks one function's TWIR and patches a stencil per
// instruction. Register assignment and phi-edge parallel copies reuse the
// backend's slot allocator and move sequentialiser (they are shared
// calling-convention machinery, not instruction selection); every native
// step body comes from the fused-tree builders.
func stencilAssemble(g *gen) error {
	for _, p := range g.fn.Params {
		if p.Ty == nil || runtime.KindOf(p.Ty) == runtime.KObj {
			return stencilErr("%s: parameter %s : %s", g.fn.Name, p.Name(), p.Ty)
		}
		r, err := g.regOf(p)
		if err != nil {
			return err
		}
		g.cf.params = append(g.cf.params, r)
	}
	g.cf.retKind = runtime.KindOf(g.fn.RetTy)
	if g.fn.RetTy != types.TVoid {
		if g.cf.retKind == runtime.KObj {
			return stencilErr("%s: returns %s", g.fn.Name, g.fn.RetTy)
		}
		g.cf.retReg = g.alloc(g.cf.retKind)
		g.cf.hasRet = true
	}
	blockIdx := map[*wir.Block]int{}
	for i, b := range g.fn.Blocks {
		blockIdx[b] = i
	}
	for _, b := range g.fn.Blocks {
		for _, phi := range b.Phis {
			if phi.Ty == nil || runtime.KindOf(phi.Ty) == runtime.KObj {
				return stencilErr("%s: phi %s : %s", g.fn.Name, phi.Name(), phi.Ty)
			}
		}
		var cb cblock
		for _, in := range b.Instrs {
			if in.IsTerminator() {
				// Terminators carry no primitive semantics — just edges,
				// phi parallel copies, and the return move — so the
				// backend's plain (unfused) terminator builder serves.
				t, err := g.genTerminator(b, in, blockIdx)
				if err != nil {
					return err
				}
				cb.term = t
				break
			}
			st, err := stencilStep(g, in)
			if err != nil {
				return err
			}
			if st != nil {
				cb.steps = append(cb.steps, st)
			}
		}
		if cb.term == nil {
			return stencilErr("%s: block %s unterminated", g.fn.Name, b.Label)
		}
		g.cf.blocks = append(g.cf.blocks, cb)
	}
	return nil
}

// stencilStep instantiates the stencil for one non-terminator instruction.
func stencilStep(g *gen, in *wir.Instr) (step, error) {
	switch in.Op {
	case wir.OpAbortCheck:
		return abortStencil, nil
	case wir.OpCall:
		// Direct calls into the same module (self/mutual recursion after
		// the SelfName rewrite) and registry calls (separately compiled
		// units) get the two call stencils; everything else must be a
		// covered native.
		if target := g.fn.Module.FuncByName(in.Callee); target != nil {
			return stencilDirectCall(g, in, target)
		}
		if _, ok := in.Prop("regcall"); ok {
			return g.genRegistryCall(in)
		}
		return stencilNative(g, in)
	}
	return nil, stencilErr("%s: op %d", g.fn.Name, in.Op)
}

// stencilNative emits one native call. The gate keeps the tier on machine
// scalars; the body is the fused-tree builder's, composing nothing.
func stencilNative(g *gen, in *wir.Instr) (step, error) {
	native := nativeOf(in)
	if native == "" {
		return nil, stencilErr("%s: unresolved call %s", g.fn.Name, in.Callee)
	}
	if len(in.Args) < 1 || len(in.Args) > 2 {
		return nil, stencilErr("%s: %s has %d operands", g.fn.Name, native, len(in.Args))
	}
	for _, a := range in.Args {
		if a.Type() == nil || runtime.KindOf(a.Type()) == runtime.KObj {
			return nil, stencilErr("%s: %s operand %s : %s", g.fn.Name, native, a.Name(), a.Type())
		}
	}
	if in.Ty != types.TVoid && runtime.KindOf(in.Ty) == runtime.KObj {
		return nil, stencilErr("%s: %s result %s", g.fn.Name, native, in.Ty)
	}
	if native == "pattern_miss" {
		return patternMissStep, nil
	}
	if !g.fusibleProducer(in) {
		return nil, stencilErr("%s: no stencil for %s", g.fn.Name, native)
	}
	dst, err := g.regOf(in)
	if err != nil {
		return nil, err
	}
	return g.assignTo(dst, in)
}

// stencilDirectCall is the module-internal call stencil. The full pipeline
// resolves these in a pass (ResolveIndirectCalls fills ResolvedFn); the
// stencil path skips passes, so the lookup happens here at assembly time.
func stencilDirectCall(g *gen, in *wir.Instr, target *wir.Function) (step, error) {
	cfTarget := g.prog.byName[target.Name]
	if cfTarget == nil {
		return nil, stencilErr("%s: call target %s missing", g.fn.Name, target.Name)
	}
	argRegs := make([]reg, len(in.Args))
	for i, a := range in.Args {
		r, err := g.regOf(a)
		if err != nil {
			return nil, err
		}
		argRegs[i] = r
	}
	var dst reg
	hasResult := in.Ty != types.TVoid
	if hasResult {
		var err error
		dst, err = g.regOf(in)
		if err != nil {
			return nil, err
		}
	}
	return func(fr *frame) {
		cfr := cfTarget.newFrame(fr.rt)
		copyArgs(fr, cfr, argRegs, cfTarget.params)
		cfTarget.exec(cfr)
		if hasResult && cfTarget.hasRet {
			copyRet(fr, cfr, dst, cfTarget.retReg)
		}
		cfTarget.releaseFrame(cfr)
	}, nil
}

// StencilSignature returns the module Main's ground signature (used by the
// tiering engine to reserve registry entries before install).
func StencilSignature(mod *wir.Module) (*types.Fn, bool) {
	main := mod.Main()
	if main == nil {
		return nil, false
	}
	sig := main.FnType()
	if !types.IsGround(sig) {
		return nil, false
	}
	return sig, true
}
