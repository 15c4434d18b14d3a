package main

import (
	"fmt"
	"io"
	"math/rand"
	gort "runtime"
	"strings"
	"time"

	"wolfc/internal/artifact"
	"wolfc/internal/bench"
	"wolfc/internal/codegen"
	"wolfc/internal/core"
	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
	"wolfc/internal/types"
)

// The kernels workload: the Figure 2 kernels except Dot (BLAS-bound and
// identical across implementations). Each is compiled cold (compile cache
// reset, no artifact store) and warm (fresh kernel and compiler over a
// populated in-memory artifact store), and run repeatedly next to the
// bench package's Go reference, whose checksum every run must match.
// Inputs are the bench package's fixed Figure 2 inputs at the sizes below;
// the seed sets the order the kernels run in.

var kernelNames = []string{"fnv1a", "mandelbrot", "blur", "histogram", "primeq", "qsort"}

// kernelSizes scale the paper's sizes down so one compiled run takes a few
// milliseconds on the calibration host.
var kernelSizes = map[string]int{
	"fnv1a":      100_000,
	"mandelbrot": 400,
	"blur":       150,
	"histogram":  100_000,
	"primeq":     20_000,
	"qsort":      1 << 12,
}

const (
	compileReps = 5 // warm compiles per kernel
	applyBatch  = 10_000
)

// compileStages maps CompileReport stage names to per-layer metric names.
var compileStages = []struct{ stage, metric string }{
	{"macro", "macro.us"},
	{"binding", "binding.us"},
	{"lower", "wir.lower_us"},
	{"infer", "infer.us"},
	{"resolve", "core.resolve_us"},
	{"passes", "passes.us"},
	{"codegen", "codegen.us"},
}

// kernelSource is a kernel's typed Function source for the compile timings.
type kernelSource struct {
	name    string
	fn      expr.Expr
	declare func(c *core.Compiler) // extra type-environment declarations
}

func kernelSources() ([]kernelSource, error) {
	var out []kernelSource
	for _, name := range kernelNames {
		src, ok := bench.FnSource(name)
		ks := kernelSource{name: name}
		switch {
		case ok:
		case name == "primeq":
			src = strings.Replace(primeqSrc, "PRIMESEEDS", primeTable(1<<14), 1)
		case name == "qsort":
			src = qsortMainSrc
			ks.declare = func(c *core.Compiler) {
				c.TypeEnv.DeclareFunction(&types.FuncDef{
					Name: "BenchQSortHelper",
					Type: c.TypeEnv.MustParseSpec(parser.MustParse(
						`{"Tensor"["Real64", 1], "Integer64", "Integer64", {"Real64", "Real64"} -> "Boolean"} -> "Integer64"`)),
					Impl: parser.MustParse(qsortHelperSrc),
				})
			}
		default:
			return nil, fmt.Errorf("no source for kernel %s", name)
		}
		fn, err := parser.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		ks.fn = fn
		out = append(out, ks)
	}
	return out, nil
}

// primeTable renders the primes below n as a Wolfram list literal.
func primeTable(n int) string {
	composite := make([]bool, n)
	var b strings.Builder
	b.WriteByte('{')
	for i := 2; i < n; i++ {
		if composite[i] {
			continue
		}
		if b.Len() > 1 {
			b.WriteString(", ")
		}
		fmt.Fprint(&b, i)
		for j := i * i; j < n; j += i {
			composite[j] = true
		}
	}
	b.WriteByte('}')
	return b.String()
}

// freshCompiler returns a compiler on a fresh kernel.
func freshCompiler(ks kernelSource) *core.Compiler {
	k := kernel.New()
	k.Out = io.Discard
	c := core.NewCompiler(k)
	if ks.declare != nil {
		ks.declare(c)
	}
	return c
}

type kernelPair struct {
	name          string
	compiled, ref bench.Runner
	want          string
}

type kernelsRig struct {
	pairs   []kernelPair
	sources []kernelSource
	inc     *core.CompiledCodeFunction // Function[x, x + 1]: the call boundary
}

func setupKernels(seed int64) (*kernelsRig, error) {
	core.ResetCompileCache() // every set-up compiles cold
	rig := &kernelsRig{}
	order := rand.New(rand.NewSource(seed)).Perm(len(kernelNames))
	for _, i := range order {
		name := kernelNames[i]
		compiled, err := bench.Prepare(name, bench.ImplCompiled, kernelSizes[name])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		ref, err := bench.Prepare(name, bench.ImplGo, kernelSizes[name])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rig.pairs = append(rig.pairs, kernelPair{name: name, compiled: compiled, ref: ref, want: ref()})
	}
	var err error
	if rig.sources, err = kernelSources(); err != nil {
		return nil, err
	}
	k := kernel.New()
	k.Out = io.Discard
	rig.inc, err = core.NewCompiler(k).FunctionCompile(parser.MustParse(`Function[{Typed[x, "MachineInteger"]}, x + 1]`))
	return rig, err
}

type compileSample struct {
	wall   time.Duration
	stages map[string]time.Duration
	instrs int
	report *core.CompileReport
}

// compileOnce compiles ks through the cached entry point on a fresh
// kernel and compiler.
func compileOnce(ks kernelSource) (*core.Compiler, *core.CompiledCodeFunction, compileSample, error) {
	c := freshCompiler(ks)
	t0 := time.Now()
	ccf, rep, err := c.FunctionCompileCachedRequest(ks.fn, core.CompileRequest{Collect: true})
	s := compileSample{wall: time.Since(t0), stages: map[string]time.Duration{}, report: rep}
	if err != nil {
		return c, nil, s, fmt.Errorf("compile %s: %w", ks.name, err)
	}
	if rep != nil {
		for _, st := range rep.Stages {
			s.stages[st.Name] += st.Duration
		}
		if rep.Passes != nil && len(rep.Passes.Passes) > 0 {
			s.instrs = rep.Passes.Passes[len(rep.Passes.Passes)-1].InstrsAfter
		}
	}
	return c, ccf, s, nil
}

func runKernels(cfg config) (outcome, error) {
	res := outcome{endToEnd: metrics{}, layers: metrics{}}
	rig, setupS, err := timedSetup(cfg.setups, func() (*kernelsRig, error) { return setupKernels(cfg.seed) }, func(*kernelsRig) {})
	if err != nil {
		return res, err
	}
	res.endToEnd.set("setup_s", setupS, "s")
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	began := time.Now()
	var op int64

	prevStore := core.SetArtifactStore(nil)
	defer core.SetArtifactStore(prevStore)

	// Warm compiles: a populated in-memory artifact store, a fresh kernel
	// and compiler and an empty memory cache each time.
	core.SetArtifactStore(artifact.OpenMemory())
	core.ResetCompileCache()
	for _, ks := range rig.sources {
		if _, _, _, err := compileOnce(ks); err != nil {
			return res, err
		}
	}
	warm := map[string][]float64{}
	var backend []float64
	artifactHits := 0
	for r := 0; r < compileReps; r++ {
		var backendSum time.Duration
		for _, ks := range rig.sources {
			core.ResetCompileCache()
			c, ccf, s, err := compileOnce(ks)
			res.attempted++
			if err != nil {
				return res, err
			}
			if s.report != nil && s.report.ArtifactHit {
				artifactHits++
			}
			warm[ks.name] = append(warm[ks.name], ms(s.wall))
			t0 := time.Now()
			_, err = codegen.CompileWithOptions(ccf.Module, codegen.CompileOptions{
				NaiveConstants: c.NaiveConstants, Parallelism: c.Parallelism,
				FuseLevel: c.FuseLevel, ProfileLevel: c.ProfileLevel})
			backendSum += time.Since(t0)
			if err != nil {
				return res, fmt.Errorf("codegen %s: %w", ks.name, err)
			}
		}
		backend = append(backend, us(backendSum))
	}
	core.SetArtifactStore(nil)

	// Compiled runs next to the Go reference until the time is used up.
	// Each round is followed by one batch of calls across the compiled-call
	// boundary of a trivial function and by one cold compile (no artifact
	// store, cache reset) of the next kernel in turn, so the compile
	// samples spread over the whole run like the run samples (five compiles
	// per kernel before the runs spread 0.23 over ten runs).
	cold := map[string][]compileSample{}
	runs := map[string][]float64{}
	goRuns := map[string][]float64{}
	var applyNs, callRawNs []float64
	nRuns, rounds := 0, 0
	var probe hostProbe
	deadline := began.Add(cfg.duration)
	for rounds < len(rig.sources) || time.Now().Before(deadline) {
		for _, p := range rig.pairs {
			op++
			start := time.Now()
			got := p.compiled()
			d := time.Since(start)
			g0 := time.Now()
			ref := p.ref()
			gd := time.Since(g0)
			res.attempted++
			if got != p.want || ref != p.want {
				res.failed++
				if res.failed <= 5 {
					fmt.Printf("mismatch: %s: compiled %q, go %q, want %q\n", p.name, got, ref, p.want)
				}
			}
			runs[p.name] = append(runs[p.name], ms(d))
			goRuns[p.name] = append(goRuns[p.name], ms(gd))
			nRuns++
			if rec != nil {
				rec.add(span{Op: op, Name: "run", Tag: p.name, Start: rec.at(start), End: rec.at(start.Add(d))})
				rec.add(span{Op: op, Name: "go", Tag: p.name, Start: rec.at(g0), End: rec.at(g0.Add(gd))})
			}
		}
		a, r, ok := boundaryBatch(rig.inc)
		applyNs, callRawNs = append(applyNs, a), append(callRawNs, r)
		res.attempted++
		if !ok {
			res.failed++
		}

		probe.run(2)
		ks := rig.sources[rounds%len(rig.sources)]
		rounds++
		core.ResetCompileCache()
		start := time.Now()
		_, _, s, err := compileOnce(ks)
		res.attempted++
		if err != nil {
			return res, err
		}
		cold[ks.name] = append(cold[ks.name], s)
		op++
		if rec != nil {
			id := rec.add(span{Op: op, Name: "compile", Tag: ks.name, Start: rec.at(start), End: rec.at(start.Add(s.wall))})
			at := start
			for _, st := range s.report.Stages {
				rec.add(span{Parent: id, Op: op, Name: "compile." + st.Name, Tag: ks.name, Start: rec.at(at), End: rec.at(at.Add(st.Duration))})
				at = at.Add(st.Duration)
			}
		}
	}

	res.endToEnd.set("peak_rss_mb", peakRSSMB(), "MB")
	var p50s, ratios []float64
	coldTotal, roundMS := 0.0, 0.0
	for _, p := range rig.pairs {
		m := median(runs[p.name])
		p50s = append(p50s, m)
		roundMS += m
		ratios = append(ratios, m/median(goRuns[p.name]))
	}
	for _, ks := range rig.sources {
		var w []float64
		for _, s := range cold[ks.name] {
			w = append(w, ms(s.wall))
		}
		coldTotal += median(w)
	}
	e := res.endToEnd
	// Runs per second over a round of every kernel once, each at its
	// median time.
	e.set("ops_per_s", float64(len(rig.pairs))/(roundMS/1e3), "1/s")
	e.set("p50_ms", geomean(p50s), "ms")
	e.set("write_ms", coldTotal, "ms")
	e.set("hot_us", median(applyNs)/1e3, "us")
	e.set("vs_ref", geomean(ratios), "x")
	normalise(e, res.layers, &probe)
	fmt.Printf("kernels: %d compiled runs, %d/%d warm compiles served by the artifact store\n",
		nRuns, artifactHits, compileReps*len(rig.sources))

	if rec != nil {
		l := res.layers
		instrs := 0
		for _, cs := range compileStages {
			total := 0.0
			for _, ks := range rig.sources {
				var xs []float64
				for _, s := range cold[ks.name] {
					xs = append(xs, us(s.stages[cs.stage]))
				}
				total += median(xs)
			}
			l.set(cs.metric, total, "us")
		}
		for _, ks := range rig.sources {
			instrs += cold[ks.name][0].instrs
		}
		l.set("passes.instrs", float64(instrs), "count")
		warmTotal := 0.0
		for _, ks := range rig.sources {
			warmTotal += median(warm[ks.name])
		}
		l.set("compile.cold_ms", coldTotal, "ms")
		l.set("compile.warm_ms", warmTotal, "ms")
		l.set("codegen.warm_us", median(backend), "us")
		l.set("artifact.warm_us", warmTotal*1e3-median(backend), "us")
		for _, p := range rig.pairs {
			l.set("run."+p.name+"_ms", median(runs[p.name]), "ms")
			l.set("go."+p.name+"_ms", median(goRuns[p.name]), "ms")
		}
		l.set("core.apply_ns", median(applyNs), "ns")
		l.set("core.callraw_ns", median(callRawNs), "ns")
		l.set("runtime.alloc_kb_per_run", allocPerRun(rig.pairs), "kB")
		if err := rec.write(cfg.spansOut); err != nil {
			return res, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

// boundaryBatch times applyBatch calls each of the boxed (Apply) and raw
// (CallRaw) entry points of a compiled x+1, in ns per call, and checks
// their results.
func boundaryBatch(ccf *core.CompiledCodeFunction) (applyNs, callRawNs float64, ok bool) {
	ok = true
	args := []expr.Expr{expr.FromInt64(41)}
	t0 := time.Now()
	var last expr.Expr
	for i := 0; i < applyBatch; i++ {
		out, err := ccf.Apply(args)
		if err != nil {
			ok = false
		}
		last = out
	}
	applyNs = float64(time.Since(t0).Nanoseconds()) / applyBatch
	if last == nil || expr.InputForm(last) != "42" {
		ok = false
	}
	t0 = time.Now()
	sum := int64(0)
	for i := 0; i < applyBatch; i++ {
		v, _ := ccf.CallRaw(int64(i)).(int64)
		sum += v
	}
	callRawNs = float64(time.Since(t0).Nanoseconds()) / applyBatch
	if want := int64(applyBatch) * (applyBatch + 1) / 2; sum != want {
		ok = false
	}
	return applyNs, callRawNs, ok
}

// allocPerRun is the heap allocated by one compiled run, averaged over the
// kernels (three runs each).
func allocPerRun(pairs []kernelPair) float64 {
	var m0, m1 gort.MemStats
	gort.ReadMemStats(&m0)
	n := 0
	for _, p := range pairs {
		for i := 0; i < 3; i++ {
			p.compiled()
			n++
		}
	}
	gort.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n)
}

// primeqSrc and the two qsort sources are the Figure 2 PrimeQ and QSort
// kernels as the bench package compiles them (bench.FnSource does not
// export these two). Only their compile times use these copies; the timed
// runs and the checksum checks go through bench.Prepare.
const primeqSrc = `Function[{Typed[limit, "MachineInteger"]}, Module[{count = 0, n = 2, isP = 0, d = 0, r = 0, x = 0, i = 0,
   wi = 0, witness = 0, lo = 1, hi = 0, mid = 0, seeds = PRIMESEEDS,
   composite = 0, b = 0, e = 0},
  While[n < limit,
   isP = 0;
   If[n < 16384,
    lo = 1; hi = Length[seeds];
    While[lo <= hi,
     mid = Quotient[lo + hi, 2];
     If[seeds[[mid]] == n,
      isP = 1; lo = hi + 1,
      If[seeds[[mid]] < n, lo = mid + 1, hi = mid - 1]]],
    If[Mod[n, 2] == 0,
     isP = 0,
     d = n - 1; r = 0;
     While[Mod[d, 2] == 0, d = Quotient[d, 2]; r = r + 1];
     isP = 1;
     wi = 1;
     While[wi <= 4 && isP == 1,
      witness = seeds[[wi]];
      x = 1; b = Mod[witness, n]; e = d;
      While[e > 0,
       If[Mod[e, 2] == 1, x = Mod[x*b, n]];
       b = Mod[b*b, n];
       e = Quotient[e, 2]];
      If[x != 1 && x != n - 1,
       composite = 1;
       i = 1;
       While[i < r && composite == 1,
        x = Mod[x*x, n];
        If[x == n - 1, composite = 0];
        i = i + 1];
       If[composite == 1, isP = 0]];
      wi = wi + 1]]];
   count = count + isP;
   n = n + 1];
  count]]`

const qsortHelperSrc = `Function[{arr, lo, hi, cmp},
 Module[{a = arr, m = 0, i = 0, j = 0, t = 0., pivot = 0.},
  If[lo < hi,
   m = Quotient[lo + hi, 2];
   t = a[[m]]; a[[m]] = a[[hi]]; a[[hi]] = t;
   pivot = a[[hi]];
   i = lo - 1;
   j = lo;
   While[j < hi,
    If[cmp[a[[j]], pivot],
     i = i + 1;
     t = a[[i]]; a[[i]] = a[[j]]; a[[j]] = t];
    j = j + 1];
   i = i + 1;
   t = a[[i]]; a[[i]] = a[[hi]]; a[[hi]] = t;
   BenchQSortHelper[a, lo, i - 1, cmp];
   BenchQSortHelper[a, i + 1, hi, cmp]];
  0]]`

const qsortMainSrc = `Function[{Typed[v0, "Tensor"["Real64", 1]],
  Typed[cmp, {"Real64", "Real64"} -> "Boolean"]},
 Module[{v = Native` + "`" + `Copy[v0]},
  BenchQSortHelper[v, 1, Length[v], cmp];
  v]]`
