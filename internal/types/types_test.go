package types

import (
	"strings"
	"testing"
	"testing/quick"

	"wolfc/internal/parser"
)

func parseTy(t *testing.T, src string) Type {
	t.Helper()
	ty, err := Builtin().ParseSpec(parser.MustParse(src))
	if err != nil {
		t.Fatalf("parse type %q: %v", src, err)
	}
	return ty
}

func TestParseSpecAtomic(t *testing.T) {
	if ty := parseTy(t, `"Integer64"`); ty != TInt64 {
		t.Fatalf("got %v", ty)
	}
	// Aliases resolve.
	if ty := parseTy(t, `"MachineInteger"`); ty != TInt64 {
		t.Fatalf("alias: %v", ty)
	}
	if ty := parseTy(t, `"Real"`); ty != TReal64 {
		t.Fatalf("alias: %v", ty)
	}
}

func TestParseSpecCompound(t *testing.T) {
	ty := parseTy(t, `"Tensor"["Integer64", 2]`)
	c, ok := ty.(*Compound)
	if !ok || c.Ctor != "Tensor" || len(c.Args) != 2 {
		t.Fatalf("got %v", ty)
	}
	if c.Args[0] != TInt64 {
		t.Fatalf("elem = %v", c.Args[0])
	}
	if l, ok := c.Args[1].(*Literal); !ok || l.Value != 2 {
		t.Fatalf("rank = %v", c.Args[1])
	}
}

func TestParseSpecFunction(t *testing.T) {
	ty := parseTy(t, `{"Integer32", "Integer32"} -> "Real64"`)
	f, ok := ty.(*Fn)
	if !ok || len(f.Params) != 2 || f.Ret != TReal64 {
		t.Fatalf("got %v", ty)
	}
	if f.Params[0] != TInt32 {
		t.Fatalf("param = %v", f.Params[0])
	}
}

func TestParseSpecForAll(t *testing.T) {
	// The paper's Map signature: TypeForAll[{a, b},
	//   {{a,b}->b, Tensor[a,1]} -> Tensor[b,1]].
	ty := parseTy(t, `TypeForAll[{"a", "b"}, {{"a", "b"} -> "b", "Tensor"["a", 1]} -> "Tensor"["b", 1]]`)
	fa, ok := ty.(*ForAll)
	if !ok || len(fa.Vars) != 2 {
		t.Fatalf("got %v", ty)
	}
	body, ok := fa.Body.(*Fn)
	if !ok || len(body.Params) != 2 {
		t.Fatalf("body = %v", fa.Body)
	}
	if _, ok := body.Params[0].(*Fn); !ok {
		t.Fatalf("first param should be a function type: %v", body.Params[0])
	}
}

func TestParseSpecQualified(t *testing.T) {
	// The paper's Min: TypeForAll[{a}, {a ∈ Ordered}, {a,a} -> a].
	ty := parseTy(t, `TypeForAll[{"a"}, {Element["a", "Ordered"]}, {"a", "a"} -> "a"]`)
	fa, ok := ty.(*ForAll)
	if !ok || len(fa.Quals) != 1 || fa.Quals[0].Class != "Ordered" {
		t.Fatalf("got %v", ty)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, src := range []string{
		`f[1]`,
		`TypeForAll[{x}, "Integer64"]`,
		`TypeForAll[{"a"}, {Element["b", "Ordered"]}, "a"]`,
		`{1, 2}`,
	} {
		if _, err := Builtin().ParseSpec(parser.MustParse(src)); err == nil {
			t.Errorf("ParseSpec(%q) should fail", src)
		}
	}
}

func TestUnifyBasics(t *testing.T) {
	s := Subst{}
	if err := Unify(TInt64, TInt64, s); err != nil {
		t.Fatal(err)
	}
	if err := Unify(TInt64, TReal64, s); err == nil {
		t.Fatal("Integer64 must not unify with Real64")
	}
	v := NewVar("a")
	if err := Unify(v, TInt64, s); err != nil {
		t.Fatal(err)
	}
	if s.Apply(v) != TInt64 {
		t.Fatalf("substitution lost: %v", s.Apply(v))
	}
}

func TestUnifyCompound(t *testing.T) {
	s := Subst{}
	a := NewVar("a")
	// Tensor[a, 1] ~ Tensor[Real64, 1] binds a := Real64.
	if err := Unify(TensorOf(a, 1), TensorOf(TReal64, 1), s); err != nil {
		t.Fatal(err)
	}
	if s.Apply(a) != TReal64 {
		t.Fatalf("a = %v", s.Apply(a))
	}
	// Rank mismatch fails.
	if err := Unify(TensorOf(TReal64, 1), TensorOf(TReal64, 2), Subst{}); err == nil {
		t.Fatal("rank mismatch must fail")
	}
}

func TestUnifyFunction(t *testing.T) {
	s := Subst{}
	a, b := NewVar("a"), NewVar("b")
	lhs := &Fn{Params: []Type{a, a}, Ret: b}
	rhs := &Fn{Params: []Type{TInt64, TInt64}, Ret: TBool}
	if err := Unify(lhs, rhs, s); err != nil {
		t.Fatal(err)
	}
	if s.Apply(a) != TInt64 || s.Apply(b) != TBool {
		t.Fatalf("a=%v b=%v", s.Apply(a), s.Apply(b))
	}
	// Conflicting param types fail: {a, a} with {Int, Real}.
	if err := Unify(&Fn{Params: []Type{a, a}, Ret: b},
		&Fn{Params: []Type{TInt64, TReal64}, Ret: TBool}, Subst{}); err == nil {
		t.Fatal("inconsistent binding must fail")
	}
}

func TestOccursCheck(t *testing.T) {
	a := NewVar("a")
	if err := Unify(a, TensorOf(a, 1), Subst{}); err == nil {
		t.Fatal("occurs check must fail")
	}
}

func TestInstantiateFreshens(t *testing.T) {
	ty := parseTy(t, `TypeForAll[{"a"}, {Element["a", "Ordered"]}, {"a", "a"} -> "a"]`)
	t1, q1 := Instantiate(ty)
	t2, q2 := Instantiate(ty)
	f1 := t1.(*Fn)
	f2 := t2.(*Fn)
	v1 := f1.Params[0].(*Var)
	v2 := f2.Params[0].(*Var)
	if v1.ID == v2.ID {
		t.Fatal("instantiations must use fresh variables")
	}
	if len(q1) != 1 || q1[0].Var.ID != v1.ID || q1[0].Class != "Ordered" {
		t.Fatalf("quals = %v", q1)
	}
	if q2[0].Var.ID != v2.ID {
		t.Fatal("qualifier must follow its instantiation")
	}
}

func TestClassMembership(t *testing.T) {
	e := Builtin()
	cases := []struct {
		ty    Type
		class string
		want  bool
	}{
		{TInt64, "Integral", true},
		{TInt8, "Integral", true},
		{TReal64, "Integral", false},
		{TReal64, "Reals", true},
		{TInt64, "Number", true},
		{TComplex, "Number", true},
		{TComplex, "Ordered", false},
		{TString, "Ordered", true},
		{TensorOf(TReal64, 1), "Container", true},
		{TensorOf(TReal64, 1), "MemoryManaged", true},
		{TInt64, "MemoryManaged", false},
		{TString, "MemoryManaged", true},
		{TBool, "Number", false},
	}
	for _, c := range cases {
		if got := e.MemberOf(c.ty, c.class); got != c.want {
			t.Errorf("MemberOf(%v, %s) = %v, want %v", c.ty, c.class, got, c.want)
		}
	}
}

func TestUserExtendsClasses(t *testing.T) {
	// Paper F6: users can add datatypes and extend classes.
	base := Builtin()
	user := NewEnv(base)
	user.DeclareClass("Ordered", "MyDecimal")
	my := AtomicOf("MyDecimal")
	if !user.MemberOf(my, "Ordered") {
		t.Fatal("user class extension not visible")
	}
	if base.MemberOf(my, "Ordered") {
		t.Fatal("user extension must not mutate the builtin environment")
	}
}

func TestOverloadLookupOrder(t *testing.T) {
	e := Builtin()
	defs := e.Lookup("Plus")
	if len(defs) < 4 {
		t.Fatalf("Plus should have scalar + tensor overloads, got %d", len(defs))
	}
	// A user environment's declaration shadows (comes before) builtins.
	user := NewEnv(e)
	user.DeclareFunction(&FuncDef{Name: "Plus",
		Type: e.MustParseSpec(parser.MustParse(`{"String", "String"} -> "String"`))})
	got := user.Lookup("Plus")
	if f, ok := got[0].Type.(*Fn); !ok || f.Params[0] != TString {
		t.Fatal("user overload must come first")
	}
}

func TestMangle(t *testing.T) {
	fn := &Fn{Params: []Type{TInt64, TInt64}, Ret: TInt64}
	if got := Mangle("Plus", fn); got != "Plus_I64_I64" {
		t.Fatalf("mangle = %s", got)
	}
	tfn := &Fn{Params: []Type{TensorOf(TReal64, 2)}, Ret: TInt64}
	got := Mangle("Length", tfn)
	if !strings.Contains(got, "Tensor") || !strings.Contains(got, "R64") {
		t.Fatalf("mangle = %s", got)
	}
}

func TestSubstQuickIdempotent(t *testing.T) {
	// Applying a substitution twice equals applying it once.
	f := func(seed uint8) bool {
		a, b, c := NewVar("a"), NewVar("b"), NewVar("c")
		s := Subst{}
		s[a.ID] = TensorOf(b, 1)
		s[b.ID] = TInt64
		var ty Type = &Fn{Params: []Type{a, b, c}, Ret: TensorOf(a, 2)}
		once := s.Apply(ty)
		twice := s.Apply(once)
		return once.String() == twice.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBuiltinDeclarationsParse(t *testing.T) {
	// Builtin() must construct without panics and expose the key symbols.
	e := Builtin()
	for _, name := range []string{"Plus", "Times", "Less", "Part", "Native`ListNew",
		"StringLength", "Dot", "Sin", "Native`SetPartUnsafe", "Native`Copy"} {
		if len(e.Lookup(name)) == 0 {
			t.Errorf("builtin %s missing", name)
		}
	}
}

func TestIsGround(t *testing.T) {
	if !IsGround(TensorOf(TReal64, 1)) {
		t.Fatal("tensor of reals is ground")
	}
	if IsGround(TensorOf(NewVar("a"), 1)) {
		t.Fatal("tensor of a variable is not ground")
	}
}

func TestTypeProductAndProjection(t *testing.T) {
	e := Builtin()
	prod, err := e.ParseSpec(parser.MustParse(`TypeProduct["Integer64", "Real64", "String"]`))
	if err != nil {
		t.Fatal(err)
	}
	c, ok := prod.(*Compound)
	if !ok || c.Ctor != "Product" || len(c.Args) != 3 {
		t.Fatalf("product = %v", prod)
	}
	// Projection selects a component at specification time (§4.4).
	proj, err := e.ParseSpec(parser.MustParse(`TypeProjection[TypeProduct["Integer64", "Real64"], 2]`))
	if err != nil {
		t.Fatal(err)
	}
	if proj != TReal64 {
		t.Fatalf("projection = %v", proj)
	}
	if _, err := e.ParseSpec(parser.MustParse(`TypeProjection[TypeProduct["Integer64"], 5]`)); err == nil {
		t.Fatal("out-of-range projection must fail")
	}
	if _, err := e.ParseSpec(parser.MustParse(`TypeProjection["Integer64", 1]`)); err == nil {
		t.Fatal("projection of non-product must fail")
	}
}

func TestCanonicalNumbersByFirstOccurrence(t *testing.T) {
	a, b := NewVar("a"), NewVar("b")
	ty := &Fn{Params: []Type{b, TensorOf(a, 1)}, Ret: b}
	if got, want := Canonical(ty).String(), "{b#0, Tensor[a#1, 1]} -> b#0"; got != want {
		t.Fatalf("Canonical = %s, want %s", got, want)
	}
	if got, want := canonicalTypeString(ty), "(b#v0,Tensor[a#v1,1])->b#v0"; got != want {
		t.Fatalf("canonicalTypeString = %s, want %s", got, want)
	}
}
