package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// The seeded input generator. Every input the program sees is a string
// built here from a math/rand source seeded by --seed (and the client or
// episode index), so the same seed gives a byte-identical input stream
// and the program never sees the seed itself.

// request is one generated serve input: Input goes to the server; Ref is
// a self-contained form of the same computation for the reference engine
// (tiering off, no FunctionCompile), so checking a reply never depends on
// which session state the reference engine happens to hold.
type request struct {
	Session int
	Class   string
	Write   bool
	Input   string
	Ref     string
}

// Serve request classes and their weights (per mille). There is no traffic
// record of a deployed wolfserve to take the shares from, so they follow a
// stated rule instead: 90% reads, split equally over the five read kinds
// (small arithmetic, calls of FunctionCompile-bound kernels, calls of
// pattern-dispatched DownValues, Table replies, one symbolic query) and
// within a kind equally over its classes; 10% writes, split equally over
// the three write kinds (redefinitions, FunctionCompile with repeated
// constants, FunctionCompile with new constants).
var serveMix = []struct {
	class  string
	weight int
	write  bool
}{
	{"arith", 180, false},     // small arithmetic
	{"kernel", 90, false},     // call of a FunctionCompile-bound kernel
	{"kw", 90, false},         // call of the kernel that writes recompile
	{"gfib", 60, false},       // guarded pattern DownValues
	{"dot2", 60, false},       // list-destructuring DownValues
	{"lin", 60, false},        // sum over a DownValue that writes redefine
	{"table", 180, false},     // Table reply of seeded length
	{"symbolic", 180, false},  // symbolic rules that must stay interpreted
	{"redef", 34, true},       // redefinition of lin
	{"compile-rep", 33, true}, // FunctionCompile with repeated constants
	{"compile-new", 33, true}, // FunctionCompile with new constants
}

// classIndex maps a class name to its index in serveMix; set-up requests,
// which are in no class, map to -1.
var classIndex = func() map[string]int8 {
	m := map[string]int8{"setup": -1}
	for i, c := range serveMix {
		m[c.class] = int8(i)
	}
	return m
}()

// serveStatic is evaluated in every session at set-up. FunctionCompile is
// rewritten to the plain Function for the reference engine.
const serveStatic = `gfib[n_Integer /; n < 2] := n;
gfib[n_Integer] := gfib[n - 1] + gfib[n - 2];
dot2[{p_, q_}, {r_, s_}] := p*r + q*s;
deriv[x_, x_] := 1;
deriv[c_Integer, x_] := 0;
deriv[u_ + v_, x_] := deriv[u, x] + deriv[v, x];
deriv[u_*v_, x_] := deriv[u, x]*v + u*deriv[v, x];
deriv[u_^n_Integer, x_] := n*u^(n - 1)*deriv[u, x];
kpoly = FunctionCompile[` + kpolySrc + `];`

const kpolySrc = `Function[{Typed[x, "MachineInteger"]}, Module[{s = 0, i = 1}, While[i <= x, s = s + Mod[i*i, 97]; i = i + 1]; s]]`

func refStatic() string {
	return strings.Replace(serveStatic, "FunctionCompile["+kpolySrc+"]", kpolySrc, 1)
}

func kwSrc(a, b int) string {
	return fmt.Sprintf(`Function[{Typed[x, "MachineInteger"]}, Module[{s = 0, i = 1}, While[i <= x, s = s + Mod[i*%d + %d, 1009]; i = i + 1]; s]]`, a, b)
}

func linDef(c, d int) string {
	return fmt.Sprintf("Clear[lin]; lin[x_Integer] := x*%d + %d", c, d)
}

// sessionState is what the writes of one session have defined so far.
type sessionState struct{ linC, linD, kwA, kwB int }

// serveGen generates one client's request stream over its sessions.
type serveGen struct {
	rng      *rand.Rand
	client   int
	sessions []sessionState
	fresh    int // counter behind never-repeated compile constants
}

func newServeGen(seed int64, client, sessions int) *serveGen {
	g := &serveGen{rng: rand.New(rand.NewSource(seed*7919 + int64(client))), client: client}
	for i := 0; i < sessions; i++ {
		g.sessions = append(g.sessions, sessionState{
			linC: 1 + g.rng.Intn(4), linD: g.rng.Intn(4),
			kwA: repeatedA[g.rng.Intn(len(repeatedA))], kwB: 1 + g.rng.Intn(2),
		})
	}
	return g
}

var repeatedA = []int{3, 5, 7, 11}

// setup returns the inputs that prepare session s: the static corpus and
// the session's first definitions of lin and kw.
func (g *serveGen) setup(s int) request {
	st := g.sessions[s]
	in := fmt.Sprintf("%s\n%s;\nkw = FunctionCompile[%s]; 0", serveStatic, linDef(st.linC, st.linD), kwSrc(st.kwA, st.kwB))
	return request{Session: s, Class: "setup", Write: true, Input: in, Ref: "0"}
}

func (g *serveGen) pick(lo, hi int) int { return lo + g.rng.Intn(hi-lo+1) }

// next returns the client's next request.
func (g *serveGen) next() request {
	s := g.rng.Intn(len(g.sessions))
	st := &g.sessions[s]
	w := g.rng.Intn(1000)
	class, write := "", false
	for _, m := range serveMix {
		if w < m.weight {
			class, write = m.class, m.write
			break
		}
		w -= m.weight
	}
	r := request{Session: s, Class: class, Write: write}
	switch class {
	case "arith":
		r.Input = fmt.Sprintf("%d + %d*%d - %d", g.pick(0, 99), g.pick(0, 99), g.pick(0, 99), g.pick(0, 99))
	case "kernel":
		r.Input = fmt.Sprintf("kpoly[%d]", g.pick(10, 200))
	case "gfib":
		r.Input = fmt.Sprintf("gfib[%d]", g.pick(6, 13))
	case "dot2":
		r.Input = fmt.Sprintf("dot2[{%d, %d}, {%d, %d}]", g.pick(-9, 9), g.pick(-9, 9), g.pick(-9, 9), g.pick(-9, 9))
	case "lin":
		n := g.pick(10, 30)
		r.Input = fmt.Sprintf("Total[Table[lin[i], {i, %d}]]", n)
		r.Ref = fmt.Sprintf("%s; %s", linDef(st.linC, st.linD), r.Input)
	case "kw":
		n := g.pick(20, 200)
		r.Input = fmt.Sprintf("kw[%d]", n)
		r.Ref = fmt.Sprintf("%s[%d]", kwSrc(st.kwA, st.kwB), n)
	case "table":
		r.Input = fmt.Sprintf("Table[i*i + %d, {i, %d}]", g.pick(0, 9), g.pick(5, 40))
	case "symbolic":
		r.Input = fmt.Sprintf("deriv[x^%d*(x^%d + x), x]", g.pick(2, 5), g.pick(2, 4))
	case "redef":
		st.linC, st.linD = g.pick(1, 4), g.pick(0, 3)
		n := g.pick(10, 30)
		r.Input = fmt.Sprintf("%s; Total[Table[lin[i], {i, %d}]]", linDef(st.linC, st.linD), n)
	case "compile-rep", "compile-new":
		if class == "compile-rep" {
			st.kwA = repeatedA[g.rng.Intn(len(repeatedA))]
		} else {
			g.fresh++
			st.kwA = 1000 + 100000*g.client + g.fresh
		}
		st.kwB = g.pick(1, 2)
		n := g.pick(20, 200)
		r.Input = fmt.Sprintf("kw = FunctionCompile[%s]; kw[%d]", kwSrc(st.kwA, st.kwB), n)
		r.Ref = fmt.Sprintf("%s[%d]", kwSrc(st.kwA, st.kwB), n)
	}
	if r.Ref == "" {
		r.Ref = r.Input
	}
	return r
}

// promoteCorpus is defined at the start of every promote episode: recursive
// fib, a guarded /; pattern function, a list-destructuring function, a
// mutually recursive pair, and symbolic rules that never compile.
const promoteCorpus = `fib[n_Integer] := If[n < 2, n, fib[n - 1] + fib[n - 2]];
gcol[n_Integer /; n <= 1] := 0;
gcol[n_Integer /; Mod[n, 2] == 0] := 1 + gcol[Quotient[n, 2]];
gcol[n_Integer] := 1 + gcol[3*n + 1];
dot2[{p_, q_}, {r_, s_}] := p*r + q*s;
ev[n_Integer] := If[n == 0, 1, od[n - 1]];
od[n_Integer] := If[n == 0, 0, ev[n - 1]];
deriv[x_, x_] := 1;
deriv[c_Integer, x_] := 0;
deriv[u_ + v_, x_] := deriv[u, x] + deriv[v, x];
deriv[u_*v_, x_] := deriv[u, x]*v + u*deriv[v, x];
deriv[u_^n_Integer, x_] := n*u^(n - 1)*deriv[u, x];`

// promoteRedef is the mid-episode redefinition.
const promoteRedef = `dot2[{p_, q_}, {r_, s_}] := p*r - q*s`

// promoteCompiled are the symbols that must reach the optimising tier.
var promoteCompiled = []string{"fib", "gcol", "dot2", "ev", "od"}

// promoteCall is one call of the fixed episode sequence.
type promoteCall struct {
	Head  string
	Input string
}

// promoteSequence generates the fixed call sequence every episode replays:
// rounds of one call to each corpus function with seeded arguments.
func promoteSequence(seed int64, rounds int) [][]promoteCall {
	rng := rand.New(rand.NewSource(seed*104729 + 17))
	pick := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	seq := make([][]promoteCall, rounds)
	for i := range seq {
		seq[i] = []promoteCall{
			{"fib", fmt.Sprintf("fib[%d]", pick(10, 14))},
			{"gcol", fmt.Sprintf("gcol[%d]", pick(5, 97))},
			{"dot2", fmt.Sprintf("dot2[{%d, %d}, {%d, %d}]", pick(-9, 9), pick(-9, 9), pick(-9, 9), pick(-9, 9))},
			{"ev", fmt.Sprintf("ev[%d]", pick(10, 40))},
			{"od", fmt.Sprintf("od[%d]", pick(10, 40))},
			{"deriv", fmt.Sprintf("deriv[x^%d*(x + %d), x]", pick(2, 4), pick(1, 5))},
		}
	}
	return seq
}
