package kernel

import (
	"math"
	"sort"

	"wolfc/internal/expr"
	"wolfc/internal/pattern"
)

func (k *Kernel) installLists() {
	k.Register("List", 0, inert)
	k.Register("Length", 0, biLength)
	k.Register("Part", 0, biPart)
	k.Register("First", 0, positional(1))
	k.Register("Last", 0, positional(-1))
	k.Register("Rest", 0, biRest)
	k.Register("Most", 0, biMost)
	k.Register("Range", Listable, biRange)
	k.Register("Table", HoldAll, biTable)
	k.Register("Map", 0, biMap)
	k.Register("MapIndexed", 0, biMapIndexed)
	k.Register("Apply", 0, biApply)
	k.Register("Fold", 0, biFold)
	k.Register("FoldList", 0, biFoldList)
	k.Register("Nest", 0, biNest)
	k.Register("NestList", 0, biNestList)
	k.Register("NestWhile", 0, biNestWhile)
	k.Register("FixedPoint", 0, biFixedPoint)
	k.Register("FixedPointList", 0, biFixedPointList)
	k.Register("Select", 0, biSelect)
	k.Register("Total", 0, biTotal)
	k.Register("Join", Flat, biJoin)
	k.Register("Append", 0, biAppend)
	k.Register("Prepend", 0, biPrepend)
	k.Register("AppendTo", HoldFirst, biAppendTo)
	k.Register("Reverse", 0, biReverse)
	k.Register("Sort", 0, biSort)
	k.Register("SortBy", 0, biSortBy)
	k.Register("Flatten", 0, biFlatten)
	k.Register("ConstantArray", 0, biConstantArray)
	k.Register("Dot", Flat, biDot)
	k.Register("Transpose", 0, biTranspose)
	k.Register("Count", 0, biCount)
	k.Register("MemberQ", 0, biMemberQ)
	k.Register("FreeQ", 0, biFreeQ)
	k.Register("Take", 0, biTake)
	k.Register("Drop", 0, biDrop)
	k.Register("Position", 0, biPosition)
	k.Register("DeleteDuplicates", 0, biDeleteDuplicates)
	k.Register("Dimensions", 0, biDimensions)
	k.Register("VectorQ", 0, biVectorQ)
	k.Register("MatrixQ", 0, biMatrixQ)
	k.Register("Accumulate", 0, biAccumulate)
	k.Register("Partition", 0, biPartition)
	k.Register("Riffle", 0, biRiffle)
	k.Register("Tally", 0, biTally)
	k.Register("Mean", 0, biMean)
	k.Register("Sum", HoldAll, biSum)
	k.Register("Product", HoldAll, biProduct)
}

func biSum(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	return iterReduce(k, n, "Plus", expr.FromInt64(0))
}

func biProduct(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	return iterReduce(k, n, "Times", expr.FromInt64(1))
}

// iterReduce folds an iterator range under an associative head.
func iterReduce(k *Kernel, n *expr.Normal, head string, identity expr.Expr) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	acc := identity
	k.iterate(n.Arg(2), func(bind func(expr.Expr) expr.Expr) bool {
		acc = k.Eval(expr.NewS(head, acc, k.Eval(bind(n.Arg(1)))))
		return true
	})
	return acc, true
}

func listArg(n *expr.Normal, i int) (*expr.Normal, bool) {
	return expr.IsNormal(n.Arg(i), expr.SymList)
}

func biLength(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	return expr.FromInt64(int64(expr.Length(n.Arg(1)))), true
}

// resolveIndex maps a possibly-negative 1-based index into [1, len],
// reporting failure for out-of-range.
func resolveIndex(i, length int) (int, bool) {
	if i < 0 {
		i = length + 1 + i
	}
	if i < 1 || i > length {
		return 0, false
	}
	return i, true
}

func biPart(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() < 1 {
		return n, false
	}
	cur := n.Arg(1)
	for i := 2; i <= n.Len(); i++ {
		// Span slicing: lst[[a ;; b]] takes the inclusive index range, with
		// negative endpoints resolving from the end.
		if sp, ok := expr.IsNormalN(n.Arg(i), expr.Sym("Span"), 2); ok {
			t, isN := cur.(*expr.Normal)
			if !isN {
				k.errorf("Part: %s is not subscriptable", expr.InputForm(cur))
			}
			a, okA := sp.Arg(1).(*expr.Integer)
			b, okB := sp.Arg(2).(*expr.Integer)
			if !okA || !okB || !a.IsMachine() || !b.IsMachine() {
				return n, false
			}
			lo, okLo := resolveIndex(int(a.Int64()), t.Len())
			hi, okHi := resolveIndex(int(b.Int64()), t.Len())
			if !okLo || !okHi || lo > hi+1 {
				k.errorf("Part: span %s out of range for length %d",
					expr.InputForm(sp), t.Len())
			}
			args := make([]expr.Expr, 0, hi-lo+1)
			for j := lo; j <= hi; j++ {
				args = append(args, t.Arg(j))
			}
			cur = expr.New(t.Head(), args...)
			continue
		}
		idx, ok := n.Arg(i).(*expr.Integer)
		if !ok || !idx.IsMachine() {
			return n, false
		}
		t, ok := cur.(*expr.Normal)
		if !ok {
			k.errorf("Part: %s is not subscriptable", expr.InputForm(cur))
		}
		if idx.Int64() == 0 {
			cur = t.Head()
			continue
		}
		j, ok := resolveIndex(int(idx.Int64()), t.Len())
		if !ok {
			k.errorf("Part: index %d out of range for %s of length %d",
				idx.Int64(), expr.InputForm(t.Head()), t.Len())
		}
		cur = t.Arg(j)
	}
	return cur, true
}

func positional(pos int) Builtin {
	return func(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
		if n.Len() != 1 {
			return n, false
		}
		t, ok := n.Arg(1).(*expr.Normal)
		if !ok || t.Len() == 0 {
			k.errorf("First/Last: %s has no elements", expr.InputForm(n.Arg(1)))
		}
		if pos > 0 {
			return t.Arg(pos), true
		}
		return t.Arg(t.Len() + 1 + pos), true
	}
}

func biRest(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	t, ok := n.Arg(1).(*expr.Normal)
	if !ok || t.Len() == 0 {
		k.errorf("Rest: %s has no elements", expr.InputForm(n.Arg(1)))
	}
	return t.WithArgs(t.Args()[1:]...), true
}

func biMost(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	t, ok := n.Arg(1).(*expr.Normal)
	if !ok || t.Len() == 0 {
		k.errorf("Most: %s has no elements", expr.InputForm(n.Arg(1)))
	}
	return t.WithArgs(t.Args()[:t.Len()-1]...), true
}

// stepLeavesInt64 reports whether v + st falls outside the int64 range.
// Such a step has also passed any int64 loop bound, so machine-integer
// loops (Range, Table, Do) stop there instead of wrapping around.
func stepLeavesInt64(v, st int64) bool {
	return (st > 0 && v > math.MaxInt64-st) || (st < 0 && v < math.MinInt64-st)
}

func biRange(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	var lo, hi, step expr.Expr
	switch n.Len() {
	case 1:
		lo, hi, step = expr.FromInt64(1), n.Arg(1), expr.FromInt64(1)
	case 2:
		lo, hi, step = n.Arg(1), n.Arg(2), expr.FromInt64(1)
	case 3:
		lo, hi, step = n.Arg(1), n.Arg(2), n.Arg(3)
	default:
		return n, false
	}
	if !isNumeric(lo) || !isNumeric(hi) || !isNumeric(step) {
		return n, false
	}
	var out []expr.Expr
	loI, ok1 := lo.(*expr.Integer)
	hiI, ok2 := hi.(*expr.Integer)
	stI, ok3 := step.(*expr.Integer)
	if ok1 && ok2 && ok3 && loI.IsMachine() && hiI.IsMachine() && stI.IsMachine() && stI.Int64() != 0 {
		st, last := stI.Int64(), hiI.Int64()
		for v := loI.Int64(); (st > 0 && v <= last) || (st < 0 && v >= last); v += st {
			out = append(out, expr.FromInt64(v))
			if stepLeavesInt64(v, st) {
				break
			}
		}
		return expr.List(out...), true
	}
	loF, _ := toFloat(lo)
	hiF, _ := toFloat(hi)
	stF, _ := toFloat(step)
	if stF == 0 {
		k.errorf("Range: zero step")
	}
	count := int((hiF-loF)/stF) + 1
	for j := 0; j < count; j++ {
		out = append(out, numAdd(lo, numMul(step, expr.FromInt64(int64(j)))))
	}
	return expr.List(out...), true
}

func biTable(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() < 2 {
		return n, false
	}
	body := n.Arg(1)
	// Multiple iterators nest: Table[e, it1, it2] == Table[Table[e, it2], it1].
	if n.Len() > 2 {
		inner := expr.NewS("Table", append([]expr.Expr{body}, n.Args()[2:]...)...)
		body = inner
	}
	var out []expr.Expr
	k.iterate(n.Arg(2), func(bind func(expr.Expr) expr.Expr) bool {
		out = append(out, k.Eval(bind(body)))
		return true
	})
	return expr.List(out...), true
}

// callApply applies a function value f to args through the evaluator.
func (k *Kernel) callApply(f expr.Expr, args ...expr.Expr) expr.Expr {
	return k.Eval(expr.New(f, args...))
}

func biMap(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	t, ok := n.Arg(2).(*expr.Normal)
	if !ok {
		return n, false
	}
	out := make([]expr.Expr, t.Len())
	for i := 1; i <= t.Len(); i++ {
		out[i-1] = k.callApply(n.Arg(1), t.Arg(i))
	}
	return t.WithArgs(out...), true
}

func biMapIndexed(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	t, ok := n.Arg(2).(*expr.Normal)
	if !ok {
		return n, false
	}
	out := make([]expr.Expr, t.Len())
	for i := 1; i <= t.Len(); i++ {
		out[i-1] = k.callApply(n.Arg(1), t.Arg(i), expr.List(expr.FromInt64(int64(i))))
	}
	return t.WithArgs(out...), true
}

func biApply(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	t, ok := n.Arg(2).(*expr.Normal)
	if !ok {
		return n, false
	}
	return k.Eval(expr.New(n.Arg(1), t.Args()...)), true
}

func biFold(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	var f, init expr.Expr
	var t *expr.Normal
	var ok bool
	switch n.Len() {
	case 2: // Fold[f, list] uses the first element as the seed
		f = n.Arg(1)
		t, ok = n.Arg(2).(*expr.Normal)
		if !ok || t.Len() == 0 {
			return n, false
		}
		init = t.Arg(1)
		t = t.WithArgs(t.Args()[1:]...)
	case 3:
		f, init = n.Arg(1), n.Arg(2)
		t, ok = n.Arg(3).(*expr.Normal)
		if !ok {
			return n, false
		}
	default:
		return n, false
	}
	acc := init
	for i := 1; i <= t.Len(); i++ {
		acc = k.callApply(f, acc, t.Arg(i))
	}
	return acc, true
}

func biFoldList(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 3 {
		return n, false
	}
	t, ok := n.Arg(3).(*expr.Normal)
	if !ok {
		return n, false
	}
	acc := n.Arg(2)
	out := make([]expr.Expr, 0, t.Len()+1)
	out = append(out, acc)
	for i := 1; i <= t.Len(); i++ {
		acc = k.callApply(n.Arg(1), acc, t.Arg(i))
		out = append(out, acc)
	}
	return expr.List(out...), true
}

func intArg(n *expr.Normal, i int) (int64, bool) {
	v, ok := n.Arg(i).(*expr.Integer)
	if !ok || !v.IsMachine() {
		return 0, false
	}
	return v.Int64(), true
}

func biNest(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 3 {
		return n, false
	}
	count, ok := intArg(n, 3)
	if !ok || count < 0 {
		return n, false
	}
	acc := n.Arg(2)
	for i := int64(0); i < count; i++ {
		acc = k.callApply(n.Arg(1), acc)
	}
	return acc, true
}

func biNestList(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 3 {
		return n, false
	}
	count, ok := intArg(n, 3)
	if !ok || count < 0 {
		return n, false
	}
	acc := n.Arg(2)
	out := make([]expr.Expr, 0, count+1)
	out = append(out, acc)
	for i := int64(0); i < count; i++ {
		acc = k.callApply(n.Arg(1), acc)
		out = append(out, acc)
	}
	return expr.List(out...), true
}

func biNestWhile(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 3 {
		return n, false
	}
	acc := n.Arg(2)
	for {
		t, isBool := expr.TruthValue(k.callApply(n.Arg(3), acc))
		if !isBool || !t {
			return acc, true
		}
		acc = k.callApply(n.Arg(1), acc)
	}
}

func biFixedPoint(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() < 2 || n.Len() > 3 {
		return n, false
	}
	maxIter := int64(1 << 16)
	if n.Len() == 3 {
		if m, ok := intArg(n, 3); ok {
			maxIter = m
		}
	}
	acc := n.Arg(2)
	for i := int64(0); i < maxIter; i++ {
		next := k.callApply(n.Arg(1), acc)
		if expr.SameQ(next, acc) {
			return acc, true
		}
		acc = next
	}
	return acc, true
}

func biFixedPointList(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() < 2 || n.Len() > 3 {
		return n, false
	}
	maxIter := int64(1 << 16)
	if n.Len() == 3 {
		if m, ok := intArg(n, 3); ok {
			maxIter = m
		}
	}
	acc := n.Arg(2)
	out := []expr.Expr{acc}
	for i := int64(0); i < maxIter; i++ {
		next := k.callApply(n.Arg(1), acc)
		out = append(out, next)
		if expr.SameQ(next, acc) {
			break
		}
		acc = next
	}
	return expr.List(out...), true
}

func biSelect(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	t, ok := n.Arg(1).(*expr.Normal)
	if !ok {
		return n, false
	}
	var out []expr.Expr
	for i := 1; i <= t.Len(); i++ {
		if v, _ := expr.TruthValue(k.callApply(n.Arg(2), t.Arg(i))); v {
			out = append(out, t.Arg(i))
		}
	}
	return t.WithArgs(out...), true
}

func biTotal(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	t, ok := listArg(n, 1)
	if !ok {
		return n, false
	}
	return k.Eval(expr.NewS("Plus", t.Args()...)), true
}

func biJoin(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() == 0 {
		return expr.List(), true
	}
	first, ok := n.Arg(1).(*expr.Normal)
	if !ok {
		return n, false
	}
	var out []expr.Expr
	for i := 1; i <= n.Len(); i++ {
		t, ok := n.Arg(i).(*expr.Normal)
		if !ok || !expr.SameQ(t.Head(), first.Head()) {
			return n, false
		}
		out = append(out, t.Args()...)
	}
	return first.WithArgs(out...), true
}

func biAppend(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	t, ok := n.Arg(1).(*expr.Normal)
	if !ok {
		return n, false
	}
	return t.WithArgs(append(append([]expr.Expr{}, t.Args()...), n.Arg(2))...), true
}

func biPrepend(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	t, ok := n.Arg(1).(*expr.Normal)
	if !ok {
		return n, false
	}
	return t.WithArgs(append([]expr.Expr{n.Arg(2)}, t.Args()...)...), true
}

func biAppendTo(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	s, ok := n.Arg(1).(*expr.Symbol)
	if !ok {
		return n, false
	}
	cur, has := k.own[s]
	if !has {
		k.errorf("AppendTo: %s has no value", s.Name)
	}
	t, ok := k.Eval(cur).(*expr.Normal)
	if !ok {
		k.errorf("AppendTo: %s is not a list", s.Name)
	}
	updated := t.WithArgs(append(append([]expr.Expr{}, t.Args()...), k.Eval(n.Arg(2)))...)
	k.own[s] = updated
	return updated, true
}

func biReverse(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	t, ok := n.Arg(1).(*expr.Normal)
	if !ok {
		return n, false
	}
	out := make([]expr.Expr, t.Len())
	for i := 0; i < t.Len(); i++ {
		out[i] = t.Arg(t.Len() - i)
	}
	return t.WithArgs(out...), true
}

func biSort(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() < 1 || n.Len() > 2 {
		return n, false
	}
	t, ok := n.Arg(1).(*expr.Normal)
	if !ok {
		return n, false
	}
	out := append([]expr.Expr{}, t.Args()...)
	if n.Len() == 1 {
		sort.SliceStable(out, func(i, j int) bool { return canonicalLess(out[i], out[j]) })
	} else {
		cmp := n.Arg(2)
		sort.SliceStable(out, func(i, j int) bool {
			v, _ := expr.TruthValue(k.callApply(cmp, out[i], out[j]))
			return v
		})
	}
	return t.WithArgs(out...), true
}

func biSortBy(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	t, ok := n.Arg(1).(*expr.Normal)
	if !ok {
		return n, false
	}
	out := append([]expr.Expr{}, t.Args()...)
	keys := make([]expr.Expr, len(out))
	for i, e := range out {
		keys[i] = k.callApply(n.Arg(2), e)
	}
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return canonicalLess(keys[idx[a]], keys[idx[b]]) })
	sorted := make([]expr.Expr, len(out))
	for i, j := range idx {
		sorted[i] = out[j]
	}
	return t.WithArgs(sorted...), true
}

func biFlatten(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	t, ok := listArg(n, 1)
	if !ok {
		return n, false
	}
	var out []expr.Expr
	var walk func(e expr.Expr)
	walk = func(e expr.Expr) {
		if l, ok := expr.IsNormal(e, expr.SymList); ok {
			for _, a := range l.Args() {
				walk(a)
			}
			return
		}
		out = append(out, e)
	}
	walk(t)
	return expr.List(out...), true
}

func biConstantArray(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	return k.randomArrayConst(n.Arg(1), n.Arg(2))
}

func (k *Kernel) randomArrayConst(val, dims expr.Expr) (expr.Expr, bool) {
	if i, ok := dims.(*expr.Integer); ok && i.IsMachine() {
		out := make([]expr.Expr, i.Int64())
		for j := range out {
			out[j] = val
		}
		return expr.List(out...), true
	}
	if l, ok := expr.IsNormal(dims, expr.SymList); ok && l.Len() >= 1 {
		fi, ok := l.Arg(1).(*expr.Integer)
		if !ok || !fi.IsMachine() {
			return nil, false
		}
		var inner expr.Expr = val
		if l.Len() > 1 {
			e, ok := k.randomArrayConst(val, expr.List(l.Args()[1:]...))
			if !ok {
				return nil, false
			}
			inner = e
		}
		out := make([]expr.Expr, fi.Int64())
		for j := range out {
			out[j] = inner
		}
		return expr.List(out...), true
	}
	return nil, false
}

// vectorFloats extracts a numeric vector as float64s.
func vectorFloats(e expr.Expr) ([]float64, bool) {
	l, ok := expr.IsNormal(e, expr.SymList)
	if !ok {
		return nil, false
	}
	out := make([]float64, l.Len())
	for i := 1; i <= l.Len(); i++ {
		f, ok := toFloat(l.Arg(i))
		if !ok {
			return nil, false
		}
		out[i-1] = f
	}
	return out, true
}

// matrixFloats extracts a rectangular numeric matrix.
func matrixFloats(e expr.Expr) ([][]float64, bool) {
	l, ok := expr.IsNormal(e, expr.SymList)
	if !ok || l.Len() == 0 {
		return nil, false
	}
	out := make([][]float64, l.Len())
	width := -1
	for i := 1; i <= l.Len(); i++ {
		row, ok := vectorFloats(l.Arg(i))
		if !ok {
			return nil, false
		}
		if width == -1 {
			width = len(row)
		} else if len(row) != width {
			return nil, false
		}
		out[i-1] = row
	}
	return out, true
}

func floatsVector(v []float64) expr.Expr {
	out := make([]expr.Expr, len(v))
	for i, f := range v {
		out[i] = expr.FromFloat(f)
	}
	return expr.List(out...)
}

func biDot(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	a, b := n.Arg(1), n.Arg(2)
	// vector . vector
	if av, ok := vectorFloats(a); ok {
		if bv, ok := vectorFloats(b); ok && len(av) == len(bv) {
			s := 0.0
			for i := range av {
				s += av[i] * bv[i]
			}
			return expr.FromFloat(s), true
		}
		if bm, ok := matrixFloats(b); ok && len(bm) == len(av) {
			out := make([]float64, len(bm[0]))
			for j := range out {
				s := 0.0
				for i := range av {
					s += av[i] * bm[i][j]
				}
				out[j] = s
			}
			return floatsVector(out), true
		}
		return n, false
	}
	if am, ok := matrixFloats(a); ok {
		if bv, ok := vectorFloats(b); ok && len(am[0]) == len(bv) {
			out := make([]float64, len(am))
			for i := range am {
				s := 0.0
				for j := range bv {
					s += am[i][j] * bv[j]
				}
				out[i] = s
			}
			return floatsVector(out), true
		}
		if bm, ok := matrixFloats(b); ok && len(am[0]) == len(bm) {
			rows, inner, cols := len(am), len(bm), len(bm[0])
			out := make([]expr.Expr, rows)
			for i := 0; i < rows; i++ {
				row := make([]float64, cols)
				for kk := 0; kk < inner; kk++ {
					aik := am[i][kk]
					for j := 0; j < cols; j++ {
						row[j] += aik * bm[kk][j]
					}
				}
				out[i] = floatsVector(row)
			}
			return expr.List(out...), true
		}
	}
	return n, false
}

func biTranspose(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	l, ok := listArg(n, 1)
	if !ok || l.Len() == 0 {
		return n, false
	}
	first, ok := expr.IsNormal(l.Arg(1), expr.SymList)
	if !ok {
		return n, false
	}
	rows, cols := l.Len(), first.Len()
	out := make([]expr.Expr, cols)
	for j := 1; j <= cols; j++ {
		col := make([]expr.Expr, rows)
		for i := 1; i <= rows; i++ {
			row, ok := expr.IsNormal(l.Arg(i), expr.SymList)
			if !ok || row.Len() != cols {
				return n, false
			}
			col[i-1] = row.Arg(j)
		}
		out[j-1] = expr.List(col...)
	}
	return expr.List(out...), true
}

func biCount(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	t, ok := n.Arg(1).(*expr.Normal)
	if !ok {
		return n, false
	}
	count := int64(0)
	for i := 1; i <= t.Len(); i++ {
		if k.matchQ(n.Arg(2), t.Arg(i)) {
			count++
		}
	}
	return expr.FromInt64(count), true
}

// matchQ tests a pattern match with condition evaluation.
func (k *Kernel) matchQ(pat, subj expr.Expr) bool {
	_, ok := pattern.MatchCond(pat, subj, k.condEval)
	return ok
}

func biMemberQ(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	t, ok := n.Arg(1).(*expr.Normal)
	if !ok {
		return n, false
	}
	for i := 1; i <= t.Len(); i++ {
		if k.matchQ(n.Arg(2), t.Arg(i)) {
			return expr.SymTrue, true
		}
	}
	return expr.SymFalse, true
}

func biFreeQ(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	found := false
	expr.Walk(n.Arg(1), func(e expr.Expr) bool {
		if k.matchQ(n.Arg(2), e) {
			found = true
		}
		return !found
	})
	return expr.Bool(!found), true
}

func biTake(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	t, ok := n.Arg(1).(*expr.Normal)
	if !ok {
		return n, false
	}
	c, ok := intArg(n, 2)
	if !ok {
		return n, false
	}
	if c >= 0 {
		if int(c) > t.Len() {
			k.errorf("Take: cannot take %d elements from length %d", c, t.Len())
		}
		return t.WithArgs(t.Args()[:c]...), true
	}
	if int(-c) > t.Len() {
		k.errorf("Take: cannot take %d elements from length %d", c, t.Len())
	}
	return t.WithArgs(t.Args()[t.Len()+int(c):]...), true
}

func biDrop(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	t, ok := n.Arg(1).(*expr.Normal)
	if !ok {
		return n, false
	}
	c, ok := intArg(n, 2)
	if !ok {
		return n, false
	}
	if c >= 0 {
		if int(c) > t.Len() {
			k.errorf("Drop: cannot drop %d elements from length %d", c, t.Len())
		}
		return t.WithArgs(t.Args()[c:]...), true
	}
	if int(-c) > t.Len() {
		k.errorf("Drop: cannot drop %d elements from length %d", c, t.Len())
	}
	return t.WithArgs(t.Args()[:t.Len()+int(c)]...), true
}

func biPosition(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	t, ok := n.Arg(1).(*expr.Normal)
	if !ok {
		return n, false
	}
	var out []expr.Expr
	for i := 1; i <= t.Len(); i++ {
		if k.matchQ(n.Arg(2), t.Arg(i)) {
			out = append(out, expr.List(expr.FromInt64(int64(i))))
		}
	}
	return expr.List(out...), true
}

func biDeleteDuplicates(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	t, ok := n.Arg(1).(*expr.Normal)
	if !ok {
		return n, false
	}
	seen := map[uint64][]expr.Expr{}
	var out []expr.Expr
	for i := 1; i <= t.Len(); i++ {
		e := t.Arg(i)
		h := expr.Hash(e)
		dup := false
		for _, prev := range seen[h] {
			if expr.SameQ(prev, e) {
				dup = true
				break
			}
		}
		if !dup {
			seen[h] = append(seen[h], e)
			out = append(out, e)
		}
	}
	return t.WithArgs(out...), true
}

func biDimensions(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	var dims []expr.Expr
	cur := n.Arg(1)
	for {
		l, ok := expr.IsNormal(cur, expr.SymList)
		if !ok {
			break
		}
		dims = append(dims, expr.FromInt64(int64(l.Len())))
		if l.Len() == 0 {
			break
		}
		// Only descend if rectangular.
		first, ok := expr.IsNormal(l.Arg(1), expr.SymList)
		if !ok {
			break
		}
		rect := true
		for i := 2; i <= l.Len(); i++ {
			r, ok := expr.IsNormal(l.Arg(i), expr.SymList)
			if !ok || r.Len() != first.Len() {
				rect = false
				break
			}
		}
		if !rect {
			break
		}
		cur = l.Arg(1)
	}
	return expr.List(dims...), true
}

func biVectorQ(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	l, ok := expr.IsNormal(n.Arg(1), expr.SymList)
	if !ok {
		return expr.SymFalse, true
	}
	for i := 1; i <= l.Len(); i++ {
		if _, isList := expr.IsNormal(l.Arg(i), expr.SymList); isList {
			return expr.SymFalse, true
		}
	}
	return expr.SymTrue, true
}

func biMatrixQ(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	_, ok := matrixFloats(n.Arg(1))
	return expr.Bool(ok), true
}

func biAccumulate(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	t, ok := listArg(n, 1)
	if !ok {
		return n, false
	}
	out := make([]expr.Expr, t.Len())
	var acc expr.Expr
	for i := 1; i <= t.Len(); i++ {
		if acc == nil {
			acc = t.Arg(i)
		} else {
			acc = k.Eval(expr.NewS("Plus", acc, t.Arg(i)))
		}
		out[i-1] = acc
	}
	return expr.List(out...), true
}

func biPartition(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	t, ok := listArg(n, 1)
	if !ok {
		return n, false
	}
	size, ok := intArg(n, 2)
	if !ok || size <= 0 {
		return n, false
	}
	var out []expr.Expr
	args := t.Args()
	for i := 0; i+int(size) <= len(args); i += int(size) {
		out = append(out, expr.List(args[i:i+int(size)]...))
	}
	return expr.List(out...), true
}

func biRiffle(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	t, ok := listArg(n, 1)
	if !ok {
		return n, false
	}
	var out []expr.Expr
	for i := 1; i <= t.Len(); i++ {
		if i > 1 {
			out = append(out, n.Arg(2))
		}
		out = append(out, t.Arg(i))
	}
	return expr.List(out...), true
}

func biTally(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	t, ok := listArg(n, 1)
	if !ok {
		return n, false
	}
	var order []expr.Expr
	counts := map[uint64]map[string]int64{}
	keyOf := func(e expr.Expr) (uint64, string) { return expr.Hash(e), expr.FullForm(e) }
	for i := 1; i <= t.Len(); i++ {
		h, s := keyOf(t.Arg(i))
		if counts[h] == nil {
			counts[h] = map[string]int64{}
		}
		if counts[h][s] == 0 {
			order = append(order, t.Arg(i))
		}
		counts[h][s]++
	}
	out := make([]expr.Expr, len(order))
	for i, e := range order {
		h, s := keyOf(e)
		out[i] = expr.List(e, expr.FromInt64(counts[h][s]))
	}
	return expr.List(out...), true
}

func biMean(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	t, ok := listArg(n, 1)
	if !ok || t.Len() == 0 {
		return n, false
	}
	sum := k.Eval(expr.NewS("Plus", t.Args()...))
	return k.Eval(expr.NewS("Divide", sum, expr.FromInt64(int64(t.Len())))), true
}
