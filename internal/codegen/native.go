package codegen

import (
	"fmt"
	"math"
	"strings"

	"wolfc/internal/expr"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// nativeOf resolves an instruction's primitive id: the Native field when
// function resolution filled it, else the overload chosen by inference.
func nativeOf(in *wir.Instr) string {
	if in.Native != "" {
		return in.Native
	}
	if d, ok := in.Prop("overload"); ok {
		return d.(*types.FuncDef).Native
	}
	return ""
}

// genNative selects the closure for a primitive call by its resolved native
// id (paper §4.5: resolved calls reference Native`PrimitiveFunction[...]).
func (g *gen) genNative(in *wir.Instr) (step, error) {
	native := nativeOf(in)
	// Special structural callees resolved by inference without an overload.
	switch in.Callee {
	case "Native`List":
		return g.genListBuild(in)
	case "Native`KernelApply":
		return g.genKernelApply(in)
	}
	if native == "" {
		return nil, fmt.Errorf("codegen %s: unresolved call %s (function resolution incomplete)", g.fn.Name, in.Callee)
	}

	if g.fusibleProducer(in) {
		// A scalar native's body lives only in the fused-tree builders;
		// without fused operands the tree is the single instruction.
		dst, err := g.regOf(in)
		if err != nil {
			return nil, err
		}
		return g.assignTo(dst, in)
	}
	regs := make([]reg, len(in.Args))
	for i, a := range in.Args {
		r, err := g.regOf(a)
		if err != nil {
			return nil, err
		}
		regs[i] = r
	}
	var dst reg
	if in.Ty != types.TVoid {
		var err error
		dst, err = g.regOf(in)
		if err != nil {
			return nil, err
		}
	}
	st := g.selectNative(native, in, regs, dst)
	if st == nil {
		return nil, fmt.Errorf("codegen %s: no implementation for native %q at %s", g.fn.Name, native, in.Ty)
	}
	return st, nil
}

// argKind returns the register class of argument i.
func argKind(regs []reg, i int) runtime.Kind { return regs[i].kind }

func tensorArg(fr *frame, idx int) *runtime.Tensor {
	t, ok := fr.o[idx].(*runtime.Tensor)
	if !ok {
		runtime.Throw(runtime.ExcType, "expected a tensor value")
	}
	return t
}

// selectNative is the instruction selector for the natives the fused-tree
// builders do not cover: tensors, strings, symbolic operations, random
// numbers, and the pattern-miss step the stencil tier shares.
func (g *gen) selectNative(native string, in *wir.Instr, regs []reg, dst reg) step {
	d := dst.idx
	a0 := func() int { return regs[0].idx }
	a1 := func() int { return regs[1].idx }

	switch native {
	case "pattern_miss":
		return patternMissStep
	// --- string ordering (the machine-scalar arms are the builders') ---
	case "cmp_less", "cmp_lessequal", "cmp_greater", "cmp_greaterequal", "cmp_equal", "cmp_unequal",
		"min", "max":
		if argKind(regs, 0) != runtime.KObj {
			return nil
		}
		return stringOrderStep(native, a0(), a1(), d)
	case "sameq_expr":
		a, b := a0(), a1()
		return func(fr *frame) {
			fr.b[d] = runtime.SameQExpr(fr.o[a].(expr.Expr), fr.o[b].(expr.Expr))
		}

	// --- tensors ---
	case "part_1", "part_unsafe_1":
		// Object elements; scalar element reads are the fused-tree builders'.
		a, b := a0(), a1()
		if native == "part_unsafe_1" {
			return func(fr *frame) { fr.o[d] = tensorArg(fr, a).GetOU(fr.i[b]) }
		}
		return func(fr *frame) { fr.o[d] = tensorArg(fr, a).GetO(fr.i[b]) }
	case "part_row":
		a, b := a0(), a1()
		return func(fr *frame) { fr.o[d] = tensorArg(fr, a).Row(fr.i[b]) }
	case "setpart_1", "setpart_unsafe_1":
		return g.setPartStep(in, regs, dst, native == "setpart_unsafe_1", false)
	case "setpart_2", "setpart_unsafe_2":
		return g.setPartStep(in, regs, dst, native == "setpart_unsafe_2", true)
	case "list_new":
		elem := tensorElemKind(in.Ty)
		a := a0()
		return func(fr *frame) {
			n := fr.i[a]
			if n < 0 {
				runtime.Throw(runtime.ExcPartRange, "negative list length %d", n)
			}
			fr.o[d] = runtime.NewTensor(elem, int(n))
		}
	case "matrix_new":
		elem := tensorElemKind(in.Ty)
		a, b := a0(), a1()
		return func(fr *frame) {
			r, c := fr.i[a], fr.i[b]
			if r < 0 || c < 0 {
				runtime.Throw(runtime.ExcPartRange, "negative matrix dimension %dx%d", r, c)
			}
			fr.o[d] = runtime.NewTensor(elem, int(r), int(c))
		}
	case "copy_tensor":
		a := a0()
		return func(fr *frame) { fr.o[d] = tensorArg(fr, a).Copy() }
	case "memory_acquire":
		if argKind(regs, 0) != runtime.KObj {
			return func(fr *frame) {}
		}
		a := a0()
		return func(fr *frame) {
			if t, ok := fr.o[a].(*runtime.Tensor); ok {
				t.Acquire()
			}
		}
	case "memory_release":
		if argKind(regs, 0) != runtime.KObj {
			return func(fr *frame) {}
		}
		a := a0()
		return func(fr *frame) {
			if t, ok := fr.o[a].(*runtime.Tensor); ok {
				t.Release()
			}
		}
	case "list_take":
		a, b := a0(), a1()
		return func(fr *frame) {
			t := tensorArg(fr, a)
			n := fr.i[b]
			if n < 0 || n > int64(t.Len()) {
				runtime.Throw(runtime.ExcPartRange, "take %d from length %d", n, t.Len())
			}
			out := runtime.NewTensor(t.Elem, int(n))
			copy(out.I, t.I)
			copy(out.F, t.F)
			copy(out.C, t.C)
			copy(out.O, t.O)
			fr.o[d] = out
		}

	// --- tensor arithmetic (Listable threading) ---
	case "tensor_plus", "tensor_times", "tensor_subtract",
		"tensor_scalar_plus", "tensor_scalar_times", "tensor_scalar_subtract",
		"scalar_tensor_plus", "scalar_tensor_times", "scalar_tensor_subtract",
		"tensor_minus":
		return g.tensorArith(native, in, regs, dst)

	case "tensor_math_sin", "tensor_math_cos", "tensor_math_tan",
		"tensor_math_exp", "tensor_math_log", "tensor_math_sqrt":
		f := mathFunc(strings.TrimPrefix(native, "tensor_math_"))
		a := a0()
		return func(fr *frame) { fr.o[d] = tensorArg(fr, a).MapFP(fr.rt.Workers, f) }
	case "tensor_math_abs":
		a := a0()
		return func(fr *frame) { fr.o[d] = tensorArg(fr, a).MapFP(fr.rt.Workers, math.Abs) }

	// --- Dot via BLAS ---
	case "dot_vv":
		a, b := a0(), a1()
		return func(fr *frame) { fr.f[d] = runtime.DotVV(tensorArg(fr, a), tensorArg(fr, b)) }
	case "dot_mv":
		a, b := a0(), a1()
		return func(fr *frame) {
			fr.o[d] = runtime.DotMVP(fr.rt.Workers, tensorArg(fr, a), tensorArg(fr, b))
		}
	case "dot_mm":
		a, b := a0(), a1()
		return func(fr *frame) {
			fr.o[d] = runtime.DotMMP(fr.rt.Workers, tensorArg(fr, a), tensorArg(fr, b))
		}

	// --- data-parallel image/statistics kernels ---
	case "gaussian_blur":
		a := a0()
		return func(fr *frame) {
			fr.o[d] = runtime.GaussianBlur3x3P(fr.rt.Workers, tensorArg(fr, a))
		}
	case "histogram_bins":
		a, b := a0(), a1()
		return func(fr *frame) {
			fr.o[d] = runtime.HistogramBinsP(fr.rt.Workers, int(fr.i[b]), tensorArg(fr, a))
		}

	// --- random numbers (engine-seeded) ---
	case "random_real01":
		return func(fr *frame) { fr.f[d] = fr.rt.Engine.RandReal() }
	case "random_real_range":
		a, b := a0(), a1()
		return func(fr *frame) {
			lo, hi := fr.f[a], fr.f[b]
			fr.f[d] = lo + fr.rt.Engine.RandReal()*(hi-lo)
		}
	case "random_int_range":
		a, b := a0(), a1()
		return func(fr *frame) { fr.i[d] = fr.rt.Engine.RandInt(fr.i[a], fr.i[b]) }

	// --- strings ---
	case "string_join":
		a, b := a0(), a1()
		return func(fr *frame) { fr.o[d] = fr.o[a].(string) + fr.o[b].(string) }
	case "string_length":
		a := a0()
		return func(fr *frame) { fr.i[d] = runtime.StringRuneLen(fr.o[a].(string)) }
	case "string_byte_length":
		a := a0()
		return func(fr *frame) { fr.i[d] = int64(len(fr.o[a].(string))) }
	case "string_byte":
		a, b := a0(), a1()
		return func(fr *frame) { fr.i[d] = runtime.StringByte(fr.o[a].(string), fr.i[b]) }
	case "to_char_code":
		a := a0()
		return func(fr *frame) { fr.o[d] = runtime.ToCharCodes(fr.o[a].(string)) }
	case "from_char_code":
		a := a0()
		return func(fr *frame) { fr.o[d] = runtime.FromCharCodes(tensorArg(fr, a)) }
	case "string_take":
		a, b := a0(), a1()
		return func(fr *frame) { fr.o[d] = runtime.StringTakeN(fr.o[a].(string), fr.i[b]) }
	case "int_to_string":
		a := a0()
		return func(fr *frame) { fr.o[d] = runtime.FormatInt(fr.i[a]) }
	case "real_to_string":
		a := a0()
		return func(fr *frame) { fr.o[d] = runtime.FormatReal(fr.f[a]) }

	// --- symbolic operations (F8) ---
	case "expr_binary_plus", "expr_binary_times", "expr_binary_power":
		head := map[string]string{
			"expr_binary_plus":  "Plus",
			"expr_binary_times": "Times",
			"expr_binary_power": "Power",
		}[native]
		a, b := a0(), a1()
		return func(fr *frame) {
			fr.o[d] = runtime.ExprBinary(fr.rt.Engine, head,
				fr.o[a].(expr.Expr), fr.o[b].(expr.Expr))
		}
	case "kernel_call":
		a := a0()
		return func(fr *frame) {
			fr.o[d] = runtime.KernelApply(fr.rt.Engine, fr.o[a].(expr.Expr), nil)
		}
	case "box_number":
		switch argKind(regs, 0) {
		case runtime.KI64:
			a := a0()
			return func(fr *frame) { fr.o[d] = expr.FromInt64(fr.i[a]) }
		case runtime.KR64:
			a := a0()
			return func(fr *frame) { fr.o[d] = expr.FromFloat(fr.f[a]) }
		case runtime.KC64:
			a := a0()
			return func(fr *frame) { fr.o[d] = expr.FromComplex(real(fr.c[a]), imag(fr.c[a])) }
		}
	}
	return nil
}

// stringOrderStep compiles a comparison, Min or Max of two strings.
func stringOrderStep(native string, a, b, d int) step {
	cmp := func(fr *frame) int { return strings.Compare(fr.o[a].(string), fr.o[b].(string)) }
	switch native {
	case "min", "max":
		isMin := native == "min"
		return func(fr *frame) {
			if (cmp(fr) < 0) == isMin {
				fr.o[d] = fr.o[a]
			} else {
				fr.o[d] = fr.o[b]
			}
		}
	case "cmp_less":
		return func(fr *frame) { fr.b[d] = cmp(fr) < 0 }
	case "cmp_lessequal":
		return func(fr *frame) { fr.b[d] = cmp(fr) <= 0 }
	case "cmp_greater":
		return func(fr *frame) { fr.b[d] = cmp(fr) > 0 }
	case "cmp_greaterequal":
		return func(fr *frame) { fr.b[d] = cmp(fr) >= 0 }
	case "cmp_equal":
		return func(fr *frame) { fr.b[d] = cmp(fr) == 0 }
	}
	return func(fr *frame) { fr.b[d] = cmp(fr) != 0 }
}

func mathFunc(name string) func(float64) float64 {
	switch name {
	case "sin":
		return math.Sin
	case "cos":
		return math.Cos
	case "tan":
		return math.Tan
	case "exp":
		return math.Exp
	case "log":
		return math.Log
	case "sqrt":
		return math.Sqrt
	case "arctan":
		return math.Atan
	case "arcsin":
		return math.Asin
	case "arccos":
		return math.Acos
	}
	return func(float64) float64 { return math.NaN() }
}

// tensorElemKind extracts the runtime element kind of a Tensor type.
func tensorElemKind(t types.Type) runtime.Kind {
	c, ok := t.(*types.Compound)
	if !ok || c.Ctor != "Tensor" {
		return runtime.KObj
	}
	return runtime.KindOf(c.Args[0])
}

// setPartStep compiles element writes; the stored value's class selects the
// mutator. The result is the (possibly copied-on-write) tensor.
func (g *gen) setPartStep(in *wir.Instr, regs []reg, dst reg, unsafe, rank2 bool) step {
	d := dst.idx
	a := regs[0].idx
	i1 := regs[1].idx
	if rank2 {
		i2 := regs[2].idx
		v := regs[3].idx
		switch regs[3].kind {
		case runtime.KI64:
			if unsafe {
				return func(fr *frame) { fr.o[d] = tensorArg(fr, a).SetI2U(fr.i[i1], fr.i[i2], fr.i[v]) }
			}
			return func(fr *frame) { fr.o[d] = tensorArg(fr, a).SetI2(fr.i[i1], fr.i[i2], fr.i[v]) }
		case runtime.KR64:
			if unsafe {
				return func(fr *frame) { fr.o[d] = tensorArg(fr, a).SetF2U(fr.i[i1], fr.i[i2], fr.f[v]) }
			}
			return func(fr *frame) { fr.o[d] = tensorArg(fr, a).SetF2(fr.i[i1], fr.i[i2], fr.f[v]) }
		case runtime.KC64:
			if unsafe {
				return func(fr *frame) { fr.o[d] = tensorArg(fr, a).SetC2U(fr.i[i1], fr.i[i2], fr.c[v]) }
			}
			return func(fr *frame) { fr.o[d] = tensorArg(fr, a).SetC2(fr.i[i1], fr.i[i2], fr.c[v]) }
		}
		return nil
	}
	v := regs[2].idx
	switch regs[2].kind {
	case runtime.KI64:
		if unsafe {
			return func(fr *frame) { fr.o[d] = tensorArg(fr, a).SetIU(fr.i[i1], fr.i[v]) }
		}
		return func(fr *frame) { fr.o[d] = tensorArg(fr, a).SetI(fr.i[i1], fr.i[v]) }
	case runtime.KR64:
		if unsafe {
			return func(fr *frame) { fr.o[d] = tensorArg(fr, a).SetFU(fr.i[i1], fr.f[v]) }
		}
		return func(fr *frame) { fr.o[d] = tensorArg(fr, a).SetF(fr.i[i1], fr.f[v]) }
	case runtime.KC64:
		if unsafe {
			return func(fr *frame) { fr.o[d] = tensorArg(fr, a).SetCU(fr.i[i1], fr.c[v]) }
		}
		return func(fr *frame) { fr.o[d] = tensorArg(fr, a).SetC(fr.i[i1], fr.c[v]) }
	case runtime.KBool:
		return func(fr *frame) { fr.o[d] = tensorArg(fr, a).SetB(fr.i[i1], fr.b[v]) }
	case runtime.KObj:
		if unsafe {
			return func(fr *frame) { fr.o[d] = tensorArg(fr, a).SetOU(fr.i[i1], fr.o[v]) }
		}
		return func(fr *frame) { fr.o[d] = tensorArg(fr, a).SetO(fr.i[i1], fr.o[v]) }
	}
	return nil
}

// tensorArith compiles elementwise tensor arithmetic.
func (g *gen) tensorArith(native string, in *wir.Instr, regs []reg, dst reg) step {
	d := dst.idx
	elem := tensorElemKind(in.Ty)
	if native == "tensor_minus" {
		a := regs[0].idx
		if elem == runtime.KI64 {
			return func(fr *frame) { fr.o[d] = tensorArg(fr, a).MapIP(fr.rt.Workers, runtime.NegI64) }
		}
		return func(fr *frame) {
			fr.o[d] = tensorArg(fr, a).MapFP(fr.rt.Workers, func(x float64) float64 { return -x })
		}
	}
	op := native[strings.LastIndex(native, "_")+1:]
	a, b := regs[0].idx, regs[1].idx
	switch {
	case strings.HasPrefix(native, "tensor_scalar_"):
		if elem == runtime.KI64 {
			f := intBinOp(op)
			return func(fr *frame) {
				s := fr.i[b]
				fr.o[d] = tensorArg(fr, a).MapIP(fr.rt.Workers, func(x int64) int64 { return f(x, s) })
			}
		}
		f := realBinOp(op)
		return func(fr *frame) {
			s := fr.f[b]
			fr.o[d] = tensorArg(fr, a).MapFP(fr.rt.Workers, func(x float64) float64 { return f(x, s) })
		}
	case strings.HasPrefix(native, "scalar_tensor_"):
		if elem == runtime.KI64 {
			f := intBinOp(op)
			return func(fr *frame) {
				s := fr.i[a]
				fr.o[d] = tensorArg(fr, b).MapIP(fr.rt.Workers, func(x int64) int64 { return f(s, x) })
			}
		}
		f := realBinOp(op)
		return func(fr *frame) {
			s := fr.f[a]
			fr.o[d] = tensorArg(fr, b).MapFP(fr.rt.Workers, func(x float64) float64 { return f(s, x) })
		}
	default: // tensor_plus / tensor_times / tensor_subtract
		if elem == runtime.KI64 {
			f := intBinOp(op)
			return func(fr *frame) { fr.o[d] = tensorArg(fr, a).ZipIP(fr.rt.Workers, tensorArg(fr, b), f) }
		}
		f := realBinOp(op)
		return func(fr *frame) { fr.o[d] = tensorArg(fr, a).ZipFP(fr.rt.Workers, tensorArg(fr, b), f) }
	}
}

func intBinOp(op string) func(a, b int64) int64 {
	switch op {
	case "plus":
		return runtime.AddI64
	case "times":
		return runtime.MulI64
	case "subtract":
		return runtime.SubI64
	}
	return func(a, b int64) int64 { return 0 }
}

func realBinOp(op string) func(a, b float64) float64 {
	switch op {
	case "plus":
		return func(a, b float64) float64 { return a + b }
	case "times":
		return func(a, b float64) float64 { return a * b }
	case "subtract":
		return func(a, b float64) float64 { return a - b }
	}
	return func(a, b float64) float64 { return math.NaN() }
}

// genListBuild compiles {e1, ..., en} construction.
func (g *gen) genListBuild(in *wir.Instr) (step, error) {
	regs := make([]reg, len(in.Args))
	for i, a := range in.Args {
		r, err := g.regOf(a)
		if err != nil {
			return nil, err
		}
		regs[i] = r
	}
	dst, err := g.regOf(in)
	if err != nil {
		return nil, err
	}
	d := dst.idx
	ty, ok := in.Ty.(*types.Compound)
	if !ok || ty.Ctor != "Tensor" {
		return nil, fmt.Errorf("codegen: Native`List of type %s", in.Ty)
	}
	rank := int(ty.Args[1].(*types.Literal).Value)
	if rank == 1 {
		elem := runtime.KindOf(ty.Args[0])
		n := len(regs)
		return func(fr *frame) {
			t := runtime.NewTensor(elem, n)
			for i, r := range regs {
				switch elem {
				case runtime.KI64:
					t.I[i] = fr.i[r.idx]
				case runtime.KR64:
					t.F[i] = fr.f[r.idx]
				case runtime.KC64:
					t.C[i] = fr.c[r.idx]
				case runtime.KBool:
					t.B[i] = fr.b[r.idx]
				case runtime.KObj:
					t.O[i] = fr.o[r.idx]
				}
			}
			fr.o[d] = t
		}, nil
	}
	// Rank 2: rows are rank-1 tensors copied into a flat matrix.
	elem := runtime.KindOf(ty.Args[0])
	n := len(regs)
	return func(fr *frame) {
		if n == 0 {
			fr.o[d] = runtime.NewTensor(elem, 0, 0)
			return
		}
		first := tensorArg(fr, regs[0].idx)
		cols := first.Len()
		t := runtime.NewTensor(elem, n, cols)
		for i, r := range regs {
			row := tensorArg(fr, r.idx)
			if row.Len() != cols {
				runtime.Throw(runtime.ExcType, "ragged matrix rows")
			}
			switch elem {
			case runtime.KI64:
				copy(t.I[i*cols:], row.I)
			case runtime.KR64:
				copy(t.F[i*cols:], row.F)
			case runtime.KC64:
				copy(t.C[i*cols:], row.C)
			}
		}
		fr.o[d] = t
	}, nil
}

// genKernelApply compiles the interpreter escape (F9): box, build the call
// expression, evaluate in the engine.
func (g *gen) genKernelApply(in *wir.Instr) (step, error) {
	regs := make([]reg, len(in.Args))
	for i, a := range in.Args {
		r, err := g.regOf(a)
		if err != nil {
			return nil, err
		}
		regs[i] = r
	}
	dst, err := g.regOf(in)
	if err != nil {
		return nil, err
	}
	d := dst.idx
	return func(fr *frame) {
		head := fr.o[regs[0].idx].(expr.Expr)
		args := make([]expr.Expr, len(regs)-1)
		for i, r := range regs[1:] {
			args[i] = fr.o[r.idx].(expr.Expr)
		}
		fr.o[d] = runtime.KernelApply(fr.rt.Engine, head, args)
	}, nil
}
