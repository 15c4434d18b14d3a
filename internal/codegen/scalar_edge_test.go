package codegen

import (
	"fmt"
	"io"
	"math"
	"math/big"
	"strings"
	"testing"

	"wolfc/internal/binding"
	"wolfc/internal/expr"
	"wolfc/internal/infer"
	"wolfc/internal/kernel"
	"wolfc/internal/macro"
	"wolfc/internal/parser"
	"wolfc/internal/passes"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// Edge-value differential for the one scalar emitter. Every scalar native
// body is written once, in the fused-tree builders, so the three ways of
// compiling a call — the stencil tier, O2 with FuseOff, O2 fully fused —
// no longer check each other by construction. This test restores that
// independence against the interpreter: every (native, operand types)
// instance fusibleProducer admits on machine-scalar operands, enumerated
// from the builtin type environment, is compiled all three ways and run on
// a grid of edge values. The three must agree bit for bit or raise the same
// exception kind, and must match the interpreter wherever no exception is
// raised.

// machineTypes instantiate polymorphic declarations: one type per register
// class (operand kind). Narrower integer widths share the integer class and
// are reached through the monomorphic cast declarations.
var machineTypes = []string{"Integer64", "Real64", "ComplexReal64", "Boolean"}

// edgeValues is the value grid for one parameter type: zero, ±1, the
// extremes of the type, and for reals ±0.0, ±Inf, NaN and large magnitudes.
func edgeValues(ty string) []any {
	ints := func(lo, hi int64) []any { return []any{int64(0), int64(1), int64(-1), lo, hi} }
	uints := func(hi int64) []any { return []any{int64(0), int64(1), hi} }
	reals := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308, 0x1p63}
	switch ty {
	case "Integer64":
		return ints(math.MinInt64, math.MaxInt64)
	case "Integer8":
		return ints(math.MinInt8, math.MaxInt8)
	case "Integer16":
		return ints(math.MinInt16, math.MaxInt16)
	case "Integer32":
		return ints(math.MinInt32, math.MaxInt32)
	case "UnsignedInteger8":
		return uints(math.MaxUint8)
	case "UnsignedInteger16":
		return uints(math.MaxUint16)
	case "UnsignedInteger32":
		return uints(math.MaxUint32)
	case "UnsignedInteger64":
		return uints(-1) // all bits set: the widened image of MaxUint64
	case "Real64":
		out := make([]any, len(reals))
		for i, r := range reals {
			out[i] = r
		}
		return out
	case "ComplexReal64":
		return []any{complex(0, 0), complex(1, -1), complex(-1, 1), complex(0, 1),
			complex(math.Inf(1), 0), complex(0, math.NaN()), complex(1e308, -1e308)}
	case "Boolean":
		return []any{true, false}
	}
	return nil
}

// scalarInstance is one ground instantiation of a native declaration.
type scalarInstance struct {
	def    *types.FuncDef
	params []string // scalar type names
}

func (s scalarInstance) key() string {
	return s.def.Name + ":" + s.def.Native + "/" + strings.Join(s.params, ",")
}

// scalarInstances grounds d's parameter types over the scalar types,
// honouring its class qualifiers.
func scalarInstances(env *types.Env, d *types.FuncDef) []scalarInstance {
	var vars []*types.Var
	var quals []types.Qual
	fn, ok := d.Type.(*types.Fn)
	if fa, isForAll := d.Type.(*types.ForAll); isForAll {
		fn, ok = fa.Body.(*types.Fn)
		vars, quals = fa.Vars, fa.Quals
	}
	if !ok || len(fn.Params) < 1 || len(fn.Params) > 2 {
		return nil
	}
	var out []scalarInstance
	var assign func(i int, s types.Subst)
	assign = func(i int, s types.Subst) {
		if i == len(vars) {
			inst := scalarInstance{def: d}
			for _, p := range fn.Params {
				a, isAtomic := s.Apply(p).(*types.Atomic)
				if !isAtomic || edgeValues(a.Name) == nil {
					return
				}
				inst.params = append(inst.params, a.Name)
			}
			out = append(out, inst)
			return
		}
		v := vars[i]
	next:
		for _, name := range machineTypes {
			t := types.AtomicOf(name)
			for _, q := range quals {
				if q.Var == v && !env.MemberOf(t, q.Class) {
					continue next
				}
			}
			s2 := types.Subst{v.ID: t}
			for id, ty := range s {
				s2[id] = ty
			}
			assign(i+1, s2)
		}
	}
	assign(0, types.Subst{})
	return out
}

// edgeSource is the one-call function that exercises an instance.
func edgeSource(inst scalarInstance) string {
	names := []string{"a", "b"}[:len(inst.params)]
	var ps []string
	for i, n := range names {
		ps = append(ps, fmt.Sprintf("Typed[%s, %q]", n, inst.params[i]))
	}
	return fmt.Sprintf("Function[{%s}, %s[%s]]", strings.Join(ps, ", "), inst.def.Name, strings.Join(names, ", "))
}

// Front-end stages for lowerEdge.
const (
	edgeQuick = iota // the stencil tier's annotator, infer.Quick
	edgeTyped        // full inference, no passes
	edgeO2           // full inference and the O2 passes
)

// lowerEdge runs the front end up to the given stage.
func lowerEdge(src string, stage int) (*wir.Module, error) {
	env := macro.DefaultEnv()
	e, err := env.Expand(parser.MustParse(src), nil)
	if err != nil {
		return nil, err
	}
	res, err := binding.Analyze(macro.ExpandSlots(e))
	if err != nil {
		return nil, err
	}
	tenv := types.Builtin()
	mod, err := wir.Lower(res, tenv)
	if err != nil {
		return nil, err
	}
	if stage == edgeQuick {
		return mod, infer.Quick(mod, tenv, nil)
	}
	if err := infer.Infer(mod, tenv, nil); err != nil || stage == edgeTyped {
		return mod, err
	}
	return mod, passes.Run(mod, tenv, passes.DefaultOptions())
}

// edgeRun runs one call: the raw result, and a bit-exact rendering of it
// or of the exception kind it raised.
func edgeRun(cf *CFunc, args []any) (v any, out string) {
	defer func() {
		if r := recover(); r != nil {
			if exc, ok := r.(*runtime.Exception); ok {
				out = fmt.Sprintf("exception %d", exc.Kind)
				return
			}
			out = fmt.Sprintf("panic %v", r)
		}
	}()
	switch v := cf.CallValues(&RT{}, args...).(type) {
	case float64:
		return v, fmt.Sprintf("real %#x", math.Float64bits(v))
	case complex128:
		return v, fmt.Sprintf("complex %#x %#x", math.Float64bits(real(v)), math.Float64bits(imag(v)))
	default:
		return v, fmt.Sprintf("%T %v", v, v)
	}
}

// asComplex widens a real or complex machine value.
func asComplex(v any) (complex128, bool) {
	switch x := v.(type) {
	case float64:
		return complex(x, 0), true
	case complex128:
		return x, true
	}
	return 0, false
}

// finite reports whether no value is a real or complex Inf or NaN.
func finite(vs ...any) bool {
	for _, v := range vs {
		c, _ := asComplex(v)
		for _, f := range []float64{real(c), imag(c)} {
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return false
			}
		}
	}
	return true
}

// numericOf reads a numeric interpreter result as a complex number.
func numericOf(e expr.Expr) (complex128, bool) {
	switch x := e.(type) {
	case *expr.Integer:
		f, _ := new(big.Float).SetInt(x.Big()).Float64()
		return complex(f, 0), true
	case *expr.Real:
		return complex(x.V, 0), true
	case *expr.Complex:
		return complex(x.Re, x.Im), true
	}
	return 0, false
}

// closeTo compares componentwise to within 4 ulps: the interpreter computes
// some results exactly (Sin[1], ArcCos[0]) and N rounds them, so reals
// match the machine result in value, not always in the last bit. Signed
// zeros compare equal; the interpreter has no -0.
func closeTo(a, b complex128) bool {
	near := func(x, y float64) bool {
		return x == y || math.Abs(x-y) <= 4*0x1p-52*math.Max(math.Abs(x), math.Abs(y))
	}
	return near(real(a), real(b)) && near(imag(a), imag(b))
}

// interpreterMismatch evaluates the call in the interpreter and describes
// how it differs from the compiled value v ("" when it agrees). Real and
// complex results are compared with N applied to the interpreter's.
func interpreterMismatch(k *kernel.Kernel, inst scalarInstance, args []any, v any, retTy types.Type) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprintf("interpreter panic %v", r)
		}
	}()
	boxed := make([]expr.Expr, len(args))
	for i, a := range args {
		boxed[i] = runtime.Box(a, types.AtomicOf(inst.params[i]))
	}
	call := expr.Expr(expr.NewS(inst.def.Name, boxed...))
	if c, numeric := asComplex(v); numeric {
		want := k.Eval(expr.NewS("N", call))
		if w, ok := numericOf(want); !ok || !closeTo(c, w) {
			return fmt.Sprintf("compiled %v, interpreter %s", v, expr.InputForm(want))
		}
		return ""
	}
	got, want := expr.InputForm(runtime.Box(v, retTy)), expr.InputForm(k.Eval(call))
	if got != want {
		return fmt.Sprintf("compiled %s, interpreter %s", got, want)
	}
	return ""
}

func edgeTuples(params []string) [][]any {
	tuples := [][]any{nil}
	for _, p := range params {
		var next [][]any
		for _, t := range tuples {
			for _, v := range edgeValues(p) {
				next = append(next, append(append([]any(nil), t...), v))
			}
		}
		tuples = next
	}
	return tuples
}

func TestScalarEdgeDifferential(t *testing.T) {
	env := types.Builtin()
	k := kernel.New()
	k.Out = io.Discard
	covered := map[string]bool{}
	for _, name := range env.Names() {
		for _, d := range env.Lookup(name) {
			if d.Native == "" {
				continue
			}
			for _, inst := range scalarInstances(env, d) {
				if covered[inst.key()] {
					continue
				}
				src := edgeSource(inst)
				full, err := lowerEdge(src, edgeO2)
				if err != nil {
					continue // not expressible as a direct call; see the coverage check
				}
				call := findNative(full, d.Native)
				if call == nil || !(&gen{}).fusibleProducer(call) {
					continue
				}
				covered[inst.key()] = true
				runEdgeInstance(t, k, inst, src, full)
			}
		}
	}
	// The enumeration must reach every scalar instance the builders admit:
	// a declaration fusibleProducer accepts but the loop above skipped
	// would silently go untested.
	for _, name := range env.Names() {
		for _, d := range env.Lookup(name) {
			for _, inst := range scalarInstances(env, d) {
				if !covered[inst.key()] && admitsSynthetic(inst) {
					t.Errorf("%s: admitted by fusibleProducer but not exercised (source %s)", inst.key(), edgeSource(inst))
				}
			}
		}
	}
	if len(covered) < 100 {
		t.Fatalf("only %d scalar instances exercised", len(covered))
	}
	t.Logf("%d scalar instances exercised", len(covered))
}

// admitsSynthetic asks fusibleProducer about an instance without going
// through the front end: a bare call instruction with the instance's
// operand and result types.
func admitsSynthetic(inst scalarInstance) bool {
	if inst.def.Native == "" {
		return false
	}
	fn, ok := inst.def.Type.(*types.Fn)
	if fa, isForAll := inst.def.Type.(*types.ForAll); isForAll {
		fn, ok = fa.Body.(*types.Fn)
		if ok {
			s := types.Subst{}
			for i, p := range fn.Params {
				if v, isVar := p.(*types.Var); isVar {
					s[v.ID] = types.AtomicOf(inst.params[i])
				}
			}
			fn, ok = s.Apply(fn).(*types.Fn)
		}
	}
	if !ok {
		return false
	}
	in := &wir.Instr{Op: wir.OpCall, Callee: inst.def.Name, Native: inst.def.Native, Ty: fn.Ret}
	for _, p := range inst.params {
		in.Args = append(in.Args, &wir.Param{Ty: types.AtomicOf(p)})
	}
	if _, isVar := fn.Ret.(*types.Var); isVar {
		return false
	}
	return (&gen{}).fusibleProducer(in)
}

// findNative returns Main's call of the given native.
func findNative(mod *wir.Module, native string) *wir.Instr {
	for _, b := range mod.Main().Blocks {
		for _, in := range b.Instrs {
			if in.Op == wir.OpCall && nativeOf(in) == native {
				return in
			}
		}
	}
	return nil
}

func runEdgeInstance(t *testing.T, k *kernel.Kernel, inst scalarInstance, src string, full *wir.Module) {
	t.Helper()
	// Quick inference only annotates Integer64/Real64/Complex/Boolean
	// parameters; the narrower integer widths of the cast declarations
	// reach the stencil backend through full inference instead.
	mod, err := lowerEdge(src, edgeQuick)
	if err != nil {
		if mod, err = lowerEdge(src, edgeTyped); err != nil {
			t.Errorf("%s: inference: %v", inst.key(), err)
			return
		}
	}
	stencil, err := StencilCompile(mod)
	if err != nil {
		t.Errorf("%s: not covered by the stencil tier: %v", inst.key(), err)
		return
	}
	off, err := CompileWithOptions(full, CompileOptions{FuseLevel: FuseOff})
	if err != nil {
		t.Errorf("%s: FuseOff: %v", inst.key(), err)
		return
	}
	fused, err := CompileWithOptions(full, CompileOptions{FuseLevel: FuseFull})
	if err != nil {
		t.Errorf("%s: FuseFull: %v", inst.key(), err)
		return
	}
	retTy := full.Main().RetTy
	// Interpreter semantics exist only for the surface functions (the
	// Native` casts are compiler-internal) and for finite values: the
	// interpreter's reals have no Inf or NaN, so those grid points check
	// the three compiled ways against each other only.
	surface := !strings.Contains(inst.def.Name, "`")
	for _, args := range edgeTuples(inst.params) {
		v, s := edgeRun(stencil.Main, args)
		_, o := edgeRun(off.Main, args)
		_, f := edgeRun(fused.Main, args)
		switch {
		case s != o || o != f:
			t.Errorf("%s%v: stencil %s, FuseOff %s, fused %s", inst.key(), args, s, o, f)
		case strings.HasPrefix(f, "panic"):
			t.Errorf("%s%v: %s", inst.key(), args, f)
		case strings.HasPrefix(f, "exception") || !surface || !finite(args...) || !finite(v):
		default:
			if msg := interpreterMismatch(k, inst, args, v, retTy); msg != "" {
				t.Errorf("%s%v: %s", inst.key(), args, msg)
			}
		}
	}
}
