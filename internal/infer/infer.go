// Package infer implements the compiler's two-phase constraint-based type
// inference (paper §4.4). Phase one traverses the IR generating
// constraints — equalities, instantiations of polymorphic declarations, and
// alternatives for overloaded functions and numeric literals. Phase two
// solves them: single-viable alternatives commit eagerly, and when solving
// stalls the canonical overload ordering (declaration rank, mirroring the
// pattern-specificity ordering) breaks ties; a tie that no ordering breaks
// is an ambiguity error. Qualifier obligations (type-class membership) are
// checked once their variables ground.
package infer

import (
	"fmt"
	"sort"

	"wolfc/internal/diag"
	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// typeErr builds a type-inference diagnostic anchored at the source MExpr
// recovered from the instruction's "mexpr" provenance property (nil when
// the instruction has no recorded source).
func typeErr(msg string, source expr.Expr) error {
	return diag.Newf(diag.Type, "T001", "%s", msg).WithSubject(source)
}

// Infer annotates every value in the module with a ground type, turning the
// WIR into TWIR (paper §4.5). Overload choices are recorded on each call
// instruction under the "overload" property. Unknown callees resolve
// against reg, the hosting kernel's function registry, so a compile never
// binds a call to another kernel's promoted definitions; a nil reg makes
// no registry calls.
func Infer(mod *wir.Module, env *types.Env, reg *fnreg.Registry) error {
	in := &inferer{
		env:   env,
		reg:   reg,
		s:     types.Subst{},
		valTy: map[wir.Value]types.Type{},
	}
	// Assign type variables to every function signature first so calls and
	// references can mention them (mutual recursion).
	for _, f := range mod.Funcs {
		for _, p := range f.Params {
			if p.Ty == nil {
				in.valTy[p] = types.NewVar("p$" + p.Sym.Name)
			} else {
				in.valTy[p] = p.Ty
			}
		}
		if f.RetTy == nil {
			in.retTy(f) // allocate
		}
	}
	for _, f := range mod.Funcs {
		if err := in.constrainFunction(f); err != nil {
			return err
		}
	}
	if err := in.solve(); err != nil {
		return err
	}
	return in.writeBack(mod)
}

type altOption struct {
	def   *types.FuncDef
	ty    types.Type // instantiated type to unify against
	quals []types.Qual
	rank  int
}

type altConstraint struct {
	want     types.Type // the type the chosen option must unify with
	options  []altOption
	instr    *wir.Instr // call being resolved; nil for literal defaults
	source   expr.Expr
	resolved bool
	name     string
}

type inferer struct {
	env   *types.Env
	reg   *fnreg.Registry
	s     types.Subst
	valTy map[wir.Value]types.Type
	rets  map[*wir.Function]types.Type
	alts  []*altConstraint
	quals []qualOb
}

type qualOb struct {
	q      types.Qual
	source expr.Expr
}

func (in *inferer) retTy(f *wir.Function) types.Type {
	if in.rets == nil {
		in.rets = map[*wir.Function]types.Type{}
	}
	if t, ok := in.rets[f]; ok {
		return t
	}
	var t types.Type
	if f.RetTy != nil {
		t = f.RetTy
	} else {
		t = types.NewVar("ret$" + f.Name)
	}
	in.rets[f] = t
	return t
}

// typeOf assigns (or retrieves) the type for a value, creating literal
// alternatives for untyped constants.
func (in *inferer) typeOf(v wir.Value) types.Type {
	if t, ok := in.valTy[v]; ok {
		return t
	}
	var t types.Type
	switch x := v.(type) {
	case *wir.Const:
		t = in.constType(x)
	case *wir.FuncRef:
		callee := x.Fn
		ps := make([]types.Type, len(callee.Params))
		for i, p := range callee.Params {
			ps[i] = in.typeOf(p)
		}
		t = &types.Fn{Params: ps, Ret: in.retTy(callee)}
	case *wir.Instr:
		t = types.NewVar(fmt.Sprintf("t%d", x.IDNum))
	default:
		t = types.NewVar("v")
	}
	in.valTy[v] = t
	return t
}

// constType types a constant: fixed for typed literals, an alternative
// chain for numeric literals (an integer literal may be any Number,
// preferring Integer64 — this is how 2*x types Real64 when x is Real64).
func (in *inferer) constType(c *wir.Const) types.Type {
	if c.Ty != nil {
		return c.Ty
	}
	switch x := c.Expr.(type) {
	case *expr.Integer:
		v := types.NewVar("lit")
		in.alts = append(in.alts, &altConstraint{
			want: v,
			options: []altOption{
				{ty: types.TInt64, rank: 0},
				{ty: types.TReal64, rank: 1},
				{ty: types.TComplex, rank: 2},
				{ty: types.TExpr, rank: 3},
			},
			name:   "integer literal",
			source: c.Expr,
		})
		return v
	case *expr.Real, *expr.Rational:
		v := types.NewVar("lit")
		in.alts = append(in.alts, &altConstraint{
			want: v,
			options: []altOption{
				{ty: types.TReal64, rank: 0},
				{ty: types.TComplex, rank: 1},
				{ty: types.TExpr, rank: 2},
			},
			name:   "real literal",
			source: c.Expr,
		})
		return v
	case *expr.String:
		return types.TString
	case *expr.Symbol:
		if x == expr.SymNull {
			// Null adapts to its context; codegen emits a zero value.
			return types.NewVar("null")
		}
		return types.TExpr
	case *expr.Normal:
		if _, ok := expr.IsNormal(x, expr.SymList); ok {
			return in.constListType(x)
		}
		return types.TExpr
	}
	return types.NewVar("const")
}

// constListType types a literal constant array by shape: real elements pin
// Tensor[Real64, r]; all-integer arrays may be integer or real.
func (in *inferer) constListType(l expr.Expr) types.Type {
	rank := 0
	hasReal := false
	var walk func(e expr.Expr, depth int)
	walk = func(e expr.Expr, depth int) {
		if n, ok := expr.IsNormal(e, expr.SymList); ok {
			if depth+1 > rank {
				rank = depth + 1
			}
			for _, a := range n.Args() {
				walk(a, depth+1)
			}
			return
		}
		if _, ok := e.(*expr.Real); ok {
			hasReal = true
		}
	}
	walk(l, 0)
	if hasReal {
		return types.TensorOf(types.TReal64, rank)
	}
	v := types.NewVar("elem")
	in.alts = append(in.alts, &altConstraint{
		want: v,
		options: []altOption{
			{ty: types.TInt64, rank: 0},
			{ty: types.TReal64, rank: 1},
		},
		name:   "integer array literal",
		source: l,
	})
	return types.TensorOf(v, rank)
}

func (in *inferer) unify(a, b types.Type, src expr.Expr) error {
	if err := types.Unify(a, b, in.s); err != nil {
		return typeErr(err.Error(), src)
	}
	return nil
}

func srcOf(i *wir.Instr) expr.Expr {
	if v, ok := i.Prop("mexpr"); ok {
		if e, ok := v.(expr.Expr); ok {
			return e
		}
	}
	return nil
}

func (in *inferer) constrainFunction(f *wir.Function) error {
	for _, ann := range f.TypeAnnotations {
		if err := in.unify(in.typeOf(ann.Val), ann.Ty, nil); err != nil {
			return err
		}
	}
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			pt := in.typeOf(phi)
			for _, a := range phi.Args {
				if err := in.unify(in.typeOf(a), pt, srcOf(phi)); err != nil {
					return err
				}
			}
		}
		for _, i := range b.Instrs {
			if err := in.constrainInstr(f, i); err != nil {
				return err
			}
		}
	}
	return nil
}

func (in *inferer) constrainInstr(f *wir.Function, i *wir.Instr) error {
	switch i.Op {
	case wir.OpCall:
		return in.constrainCall(f, i)
	case wir.OpCallIndirect:
		argTys := make([]types.Type, len(i.Args)-1)
		for j, a := range i.Args[1:] {
			argTys[j] = in.typeOf(a)
		}
		want := &types.Fn{Params: argTys, Ret: in.typeOf(i)}
		return in.unify(in.typeOf(i.Args[0]), want, srcOf(i))
	case wir.OpClosure:
		ref, ok := i.Args[0].(*wir.FuncRef)
		if !ok {
			return typeErr("closure over non-function", srcOf(i))
		}
		callee := ref.Fn
		captures := i.Args[1:]
		nPlain := len(callee.Params) - len(captures)
		if nPlain < 0 {
			return typeErr("closure capture arity mismatch", srcOf(i))
		}
		for j, c := range captures {
			if err := in.unify(in.typeOf(c), in.typeOf(callee.Params[nPlain+j]), srcOf(i)); err != nil {
				return err
			}
		}
		ps := make([]types.Type, nPlain)
		for j := 0; j < nPlain; j++ {
			ps[j] = in.typeOf(callee.Params[j])
		}
		return in.unify(in.typeOf(i), &types.Fn{Params: ps, Ret: in.retTy(callee)}, srcOf(i))
	case wir.OpBranch:
		return nil
	case wir.OpCondBranch:
		return in.unify(in.typeOf(i.Args[0]), types.TBool, srcOf(i))
	case wir.OpReturn:
		if len(i.Args) == 1 {
			return in.unify(in.typeOf(i.Args[0]), in.retTy(f), srcOf(i))
		}
		return in.unify(in.retTy(f), types.TVoid, srcOf(i))
	case wir.OpAbortCheck:
		return nil
	}
	return nil
}

func (in *inferer) constrainCall(f *wir.Function, i *wir.Instr) error {
	argTys := make([]types.Type, len(i.Args))
	for j, a := range i.Args {
		argTys[j] = in.typeOf(a)
	}
	want := &types.Fn{Params: argTys, Ret: in.typeOf(i)}

	// Calls to module functions (self/mutual recursion) bind directly.
	if target := f.Module.FuncByName(i.Callee); target != nil {
		ps := make([]types.Type, len(target.Params))
		for j, p := range target.Params {
			ps[j] = in.typeOf(p)
		}
		return in.unify(want, &types.Fn{Params: ps, Ret: in.retTy(target)}, srcOf(i))
	}

	switch i.Callee {
	case "Native`List":
		// {e1, ..., en}: either a vector of scalars or a matrix of rows.
		elem := types.NewVar("elem")
		vecParams := make([]types.Type, len(i.Args))
		rowParams := make([]types.Type, len(i.Args))
		for j := range i.Args {
			vecParams[j] = elem
			rowParams[j] = types.TensorOf(elem, 1)
		}
		in.alts = append(in.alts, &altConstraint{
			want: want,
			options: []altOption{
				{ty: &types.Fn{Params: vecParams, Ret: types.TensorOf(elem, 1)}, rank: 0},
				{ty: &types.Fn{Params: rowParams, Ret: types.TensorOf(elem, 2)}, rank: 1},
			},
			instr:  i,
			name:   "Native`List",
			source: srcOf(i),
		})
		return nil
	case "Native`KernelApply":
		ps := make([]types.Type, len(i.Args))
		for j := range ps {
			ps[j] = types.TExpr
		}
		return in.unify(want, &types.Fn{Params: ps, Ret: types.TExpr}, srcOf(i))
	}

	defs := in.env.Lookup(i.Callee)
	// Filter by arity first (arity overloading, §4.4).
	var opts []altOption
	for rank, d := range defs {
		body, quals := types.Instantiate(d.Type)
		fn, ok := body.(*types.Fn)
		if !ok || len(fn.Params) != len(i.Args) {
			continue
		}
		opts = append(opts, altOption{def: d, ty: fn, quals: quals, rank: rank})
	}
	if len(opts) == 0 {
		// Last resort before failing: the function registry. A name that is
		// neither a module function nor a declared builtin may be another
		// separately compiled unit (an auto-promoted DownValue definition, or
		// a member of a mutual-recursion group reserved mid-compile). Resolve
		// the call against its ground registry signature and mark the
		// instruction so codegen emits a direct registry call instead of a
		// boxed KernelApply round-trip.
		if ent, ok := in.reg.Lookup(i.Callee); ok {
			sig := ent.Sig()
			if len(sig.Params) == len(i.Args) {
				i.SetProp("regcall", ent)
				return in.unify(want, sig, srcOf(i))
			}
			return typeErr(fmt.Sprintf("registry function %s takes %d arguments, called with %d", i.Callee, len(sig.Params), len(i.Args)), srcOf(i))
		}
		name := i.Callee
		return typeErr(fmt.Sprintf("no matching implementation for %s with %d arguments; the function is unknown to the compiler (wrap the call in KernelFunction to evaluate it in the interpreter)", name, len(i.Args)), srcOf(i))
	}
	in.alts = append(in.alts, &altConstraint{
		want: want, options: opts, instr: i, name: i.Callee, source: srcOf(i),
	})
	return nil
}

// consistent simulates committing opt and checks that every other pending
// alternative still has at least one viable option, using tracked
// speculative bindings throughout.
func (in *inferer) consistent(a *altConstraint, opt altOption, pending []*altConstraint) bool {
	var outer []int64
	defer func() { in.s.Rollback(outer) }()
	if types.UnifyTracked(a.want, opt.ty, in.s, &outer) != nil {
		return false
	}
	for _, other := range pending {
		if other == a || other.resolved {
			continue
		}
		ok := false
		for _, oo := range other.options {
			var inner []int64
			if types.UnifyTracked(other.want, oo.ty, in.s, &inner) == nil {
				ok = true
			}
			in.s.Rollback(inner)
			if ok {
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// trial checks whether an option can unify, speculatively binding into the
// live substitution and rolling back (O(bindings), not O(|subst|)). It also
// checks any qualifiers that ground during the trial.
func (in *inferer) trial(a *altConstraint, opt altOption) bool {
	var added []int64
	defer func() { in.s.Rollback(added) }()
	if types.UnifyTracked(a.want, opt.ty, in.s, &added) != nil {
		return false
	}
	for _, q := range opt.quals {
		t := in.s.Apply(q.Var)
		// Class membership is keyed by the outermost constructor, so it is
		// decidable as soon as the head is known, even when arguments are
		// still variables: Tensor[e, 1] is not a Number for any e, which is
		// what disqualifies the scalar overloads for tensor operands.
		if headDecidable(t) && !in.env.MemberOf(t, q.Class) {
			return false
		}
	}
	return true
}

// headDecidable reports whether a type's class membership can already be
// determined (its outermost constructor is fixed).
func headDecidable(t types.Type) bool {
	switch t.(type) {
	case *types.Atomic, *types.Compound, *types.Fn:
		return true
	}
	return false
}

func (in *inferer) commit(a *altConstraint, opt altOption) error {
	if err := types.Unify(a.want, opt.ty, in.s); err != nil {
		return typeErr(err.Error(), a.source)
	}
	for _, q := range opt.quals {
		in.quals = append(in.quals, qualOb{q: q, source: a.source})
	}
	if a.instr != nil && opt.def != nil {
		a.instr.SetProp("overload", opt.def)
	}
	if a.instr != nil {
		a.instr.SetProp("calltype", opt.ty)
	}
	a.resolved = true
	return nil
}

func (in *inferer) solve() error {
	for {
		progress := false
		for _, a := range in.alts {
			if a.resolved {
				continue
			}
			var viable []altOption
			for _, opt := range a.options {
				if in.trial(a, opt) {
					viable = append(viable, opt)
				}
			}
			switch len(viable) {
			case 0:
				return typeErr(fmt.Sprintf("no overload of %s matches %s", a.name, types.Canonical(in.s.Apply(a.want))), a.source)
			case 1:
				if err := in.commit(a, viable[0]); err != nil {
					return err
				}
				progress = true
			}
		}
		if progress {
			continue
		}
		// Stalled: commit the best-ranked viable option of the most
		// constrained alternative (the canonical ordering, §4.4). Literal
		// defaults resolve last so calls see maximally-informed types.
		var pending []*altConstraint
		for _, a := range in.alts {
			if !a.resolved {
				pending = append(pending, a)
			}
		}
		if len(pending) == 0 {
			break
		}
		sort.SliceStable(pending, func(x, y int) bool {
			lx := pending[x].instr != nil
			ly := pending[y].instr != nil
			if lx != ly {
				return lx // call overloads before literal defaults
			}
			return false
		})
		committed := false
		for _, a := range pending {
			var viable []altOption
			for _, opt := range a.options {
				if in.trial(a, opt) {
					viable = append(viable, opt)
				}
			}
			if len(viable) == 0 {
				return typeErr(fmt.Sprintf("no overload of %s matches %s", a.name, types.Canonical(in.s.Apply(a.want))), a.source)
			}
			sort.SliceStable(viable, func(x, y int) bool { return viable[x].rank < viable[y].rank })
			// Declaration order provides the canonical overload ordering,
			// refined by a one-step consistency check: an option that would
			// strand another pending alternative with zero viable choices
			// is skipped (e.g. an integer literal must not default to
			// Integer64 when it is unified with a real literal).
			choice := viable[0]
			for _, opt := range viable {
				if in.consistent(a, opt, pending) {
					choice = opt
					break
				}
			}
			if err := in.commit(a, choice); err != nil {
				return err
			}
			committed = true
			break
		}
		if !committed {
			break
		}
	}

	// Check the accumulated qualifier obligations.
	for _, ob := range in.quals {
		t := in.s.Apply(ob.q.Var)
		if !types.IsGround(t) {
			return typeErr(fmt.Sprintf("unresolved type %s constrained to class %s", t, ob.q.Class), ob.source)
		}
		if !in.env.MemberOf(t, ob.q.Class) {
			return typeErr(fmt.Sprintf("type %s is not a member of class %q", t, ob.q.Class), ob.source)
		}
	}
	return nil
}

// writeBack applies the final substitution to every value, requiring ground
// types (code generation refuses variables, §4.6).
func (in *inferer) writeBack(mod *wir.Module) error {
	resolve := func(v wir.Value, owner *wir.Function) (types.Type, error) {
		t := in.s.Apply(in.typeOf(v))
		if !types.IsGround(t) {
			// Dangling Null/unused values default to Void.
			if fv, ok := t.(*types.Var); ok {
				in.s[fv.ID] = types.TVoid
				return types.TVoid, nil
			}
			return nil, typeErr(fmt.Sprintf("could not infer a concrete type (got %s) in %s", t, owner.Name), nil)
		}
		return t, nil
	}
	for _, f := range mod.Funcs {
		for _, p := range f.Params {
			t, err := resolve(p, f)
			if err != nil {
				return err
			}
			p.Ty = t
		}
		rt := in.s.Apply(in.retTy(f))
		if !types.IsGround(rt) {
			rt = types.TVoid
		}
		f.RetTy = rt
		for _, b := range f.Blocks {
			for _, phi := range b.Phis {
				t, err := resolve(phi, f)
				if err != nil {
					return err
				}
				phi.Ty = t
				for _, a := range phi.Args {
					switch v := a.(type) {
					case *wir.Const:
						ct, err := resolve(v, f)
						if err != nil {
							return err
						}
						v.Ty = ct
						normaliseConst(v)
					case *wir.FuncRef:
						ft, err := resolve(v, f)
						if err != nil {
							return err
						}
						v.Ty = ft
					}
				}
			}
			for _, i := range b.Instrs {
				t, err := resolve(i, f)
				if err != nil {
					return err
				}
				i.Ty = t
				for _, a := range i.Args {
					switch v := a.(type) {
					case *wir.Const:
						ct, err := resolve(v, f)
						if err != nil {
							return err
						}
						v.Ty = ct
						normaliseConst(v)
					case *wir.FuncRef:
						ft, err := resolve(v, f)
						if err != nil {
							return err
						}
						v.Ty = ft
					}
				}
				if ct, ok := i.Prop("calltype"); ok {
					i.SetProp("calltype", in.s.Apply(ct.(types.Type)))
				}
			}
		}
	}
	mod.Typed = true
	return nil
}

// normaliseConst rewrites literal constants whose inferred type differs
// from their literal form (an integer literal typed Real64 becomes a Real).
func normaliseConst(c *wir.Const) {
	switch c.Ty {
	case types.TReal64:
		if i, ok := c.Expr.(*expr.Integer); ok && i.IsMachine() {
			c.Expr = expr.FromFloat(float64(i.Int64()))
		}
		if r, ok := c.Expr.(*expr.Rational); ok {
			f, _ := r.V.Float64()
			c.Expr = expr.FromFloat(f)
		}
	case types.TComplex:
		if i, ok := c.Expr.(*expr.Integer); ok && i.IsMachine() {
			c.Expr = expr.FromComplex(float64(i.Int64()), 0)
		}
		if r, ok := c.Expr.(*expr.Real); ok {
			c.Expr = expr.FromComplex(r.V, 0)
		}
	}
}
