package main

import (
	"fmt"
	"time"

	"wolfc/internal/core"
	"wolfc/internal/engine"
	"wolfc/internal/expr"
	"wolfc/internal/obs"
)

// The promote workload: repeated cold→hot episodes. Each episode builds a
// fresh tiered engine, defines promoteCorpus, replays the fixed call
// sequence until every symbol of promoteCompiled is served by the
// optimising tier, runs steadyRounds more rounds, redefines one symbol
// and runs afterRounds more. HTTP takes no part.
const (
	promoteMaxRounds = 400
	// Episodes cycle through promoteVariants call sequences drawn from the
	// seed. An episode's wall time depends on its arguments (interpreted
	// fib grows with n), so a run's median episode should not rest on one
	// draw.
	promoteVariants = 8
	steadyRounds    = 10
	afterRounds     = 20
	noopEvals       = 3
	// The comparison with the reference times compareRounds rounds of the
	// sequence compareReps times each: the ratio depends on the seeded
	// arguments (interpreted fib grows with n, compiled fib barely), so it
	// averages over many rounds to stay steady from seed to seed.
	compareRounds = 40
	compareReps   = 5
)

const (
	tierInterp = iota
	tierStencil
	tierO2
)

var tierNames = [...]string{"interp", "stencil", "o2"}

type promoteCallRec struct {
	call   promoteCall
	after  bool // after the redefinition
	steady bool // every symbol was on O2
	tier   int  // tier of the call's head when the call started (traced runs)
	dur    time.Duration
	value  string
	err    error
}

type episode struct {
	wall time.Duration
	// steps are the times (ms), in order, of the episode's set-up (engine
	// and corpus), each call, each drain of background compiles and the
	// redefinition: everything its wall time is made of but the
	// benchmark's own bookkeeping.
	steps     []float64
	calls     []promoteCallRec
	redef     time.Duration
	reachedO2 bool
	stats     core.TieringStats
	noop      []float64 // µs
	toStencil []float64 // ms, per symbol
	toO2      []float64 // ms, per symbol
	// Steady calls timed alternately on the tiered engine and the
	// reference (µs), and the comparisons that disagreed.
	cmpTiered, cmpRef []float64
	cmpFailed         int
}

// runEpisode plays one episode. With a recorder it also checks each call's
// tier and records spans: the episode root, one engine.eval per call, and
// per symbol the background promotion spans from its first call to the
// first call served on the stencil and O2 tiers — spans that outlive the
// call that triggered them. With a reference, once every symbol is on O2
// it also times the steady calls alternately on the tiered engine and the
// reference, so the ratio of the two is taken under the same conditions;
// that time is left out of the episode's wall time.
func runEpisode(seq [][]promoteCall, id int64, rec *recorder, cmp *reference) (episode, error) {
	var ep episode
	t0 := time.Now()
	eng := engine.New(engine.Options{ID: fmt.Sprintf("promote-%d", id), Tiering: true,
		Tier: core.TierPolicy{Threshold: 50, Workers: 1}})
	defer eng.Close()
	if _, err := eng.Eval(promoteCorpus, 0); err != nil {
		return ep, fmt.Errorf("corpus: %w", err)
	}
	ep.steps = append(ep.steps, ms(time.Since(t0)))
	syms := map[string]*expr.Symbol{}
	for _, name := range promoteCompiled {
		syms[name] = expr.Sym(name)
	}
	tierOf := func(head string) int {
		s, ok := syms[head]
		switch {
		case !ok || !eng.Tiering.Compiled(s):
			return tierInterp
		case eng.Tiering.OnStencilTier(s):
			return tierStencil
		}
		return tierO2
	}
	allO2 := func() bool {
		for _, name := range promoteCompiled {
			if tierOf(name) != tierO2 {
				return false
			}
		}
		return true
	}
	rootID := rec.newID()
	type firstSeen struct {
		span  int64
		start time.Time
		seen  [3]bool // a call of the symbol was served on that tier
	}
	first := map[string]*firstSeen{}
	call := func(c promoteCall, after, steady bool) {
		r := promoteCallRec{call: c, after: after, steady: steady}
		if rec != nil {
			r.tier = tierOf(c.Head)
		}
		start := time.Now()
		out, err := eng.Eval(c.Input, 0)
		r.dur = time.Since(start)
		ep.steps = append(ep.steps, ms(r.dur))
		r.err = err
		if err == nil && out.Value != nil {
			r.value = expr.InputForm(out.Value)
		}
		ep.calls = append(ep.calls, r)
		if rec == nil || after {
			return
		}
		sid := rec.add(span{Parent: rootID, Op: id, Name: "engine.eval", Tag: tierNames[r.tier],
			Start: rec.at(start), End: rec.at(start.Add(r.dur))})
		f := first[c.Head]
		if f == nil {
			f = &firstSeen{span: sid, start: start}
			first[c.Head] = f
		}
		// A symbol that skips the stencil tier (dot2 takes lists) adds no
		// tier.to_stencil sample.
		if r.tier != tierInterp && !f.seen[r.tier] {
			f.seen[r.tier] = true
			rec.add(span{Parent: f.span, Op: id, Name: "tier.to_" + tierNames[r.tier], Start: rec.at(f.start), End: rec.at(start)})
			if r.tier == tierStencil {
				ep.toStencil = append(ep.toStencil, ms(start.Sub(f.start)))
			} else {
				ep.toO2 = append(ep.toO2, ms(start.Sub(f.start)))
			}
		}
	}

	// Background compiles drain after every round, so which calls run on
	// which tier follows from the call sequence, not from how soon the
	// host runs the tier worker.
	drain := func() {
		t := time.Now()
		eng.WaitIdle()
		ep.steps = append(ep.steps, ms(time.Since(t)))
	}
	for r := 0; r < len(seq) && !ep.reachedO2; r++ {
		for _, c := range seq[r] {
			call(c, false, false)
		}
		drain()
		ep.reachedO2 = allO2()
	}
	if !ep.reachedO2 {
		return ep, nil
	}
	for r := 0; r < steadyRounds; r++ {
		for _, c := range seq[r] {
			call(c, false, true)
		}
	}
	if cmp != nil {
		paused := time.Now()
		for rep := 0; rep < compareReps; rep++ {
			for r := 0; r < compareRounds; r++ {
				for _, c := range seq[r] {
					t := time.Now()
					out, err := eng.Eval(c.Input, 0)
					ep.cmpTiered = append(ep.cmpTiered, us(time.Since(t)))
					t = time.Now()
					want, werr := cmp.eng.Eval(c.Input, 0)
					ep.cmpRef = append(ep.cmpRef, us(time.Since(t)))
					if err != nil || werr != nil || out.Value == nil || want.Value == nil ||
						expr.InputForm(out.Value) != expr.InputForm(want.Value) {
						ep.cmpFailed++
					}
				}
			}
		}
		t0 = t0.Add(time.Since(paused))
	}
	start := time.Now()
	if _, err := eng.Eval(promoteRedef, 0); err != nil {
		return ep, fmt.Errorf("redefinition: %w", err)
	}
	ep.redef = time.Since(start)
	ep.steps = append(ep.steps, ms(ep.redef))
	for r := 0; r < afterRounds; r++ {
		for _, c := range seq[r] {
			call(c, true, false)
		}
		drain()
	}
	ep.wall = time.Since(t0)
	ep.stats = eng.Stats()
	if rec != nil {
		rec.add(span{ID: rootID, Op: id, Name: "episode", Start: rec.at(t0), End: rec.at(t0.Add(ep.wall))})
		for i := 0; i < noopEvals; i++ {
			t := time.Now()
			eng.Eval("0", 0)
			ep.noop = append(ep.noop, us(time.Since(t)))
		}
	}
	return ep, nil
}

type promoteRig struct {
	seqs     [][][]promoteCall
	mixed    [][]promoteCall // round i from sequence i mod promoteVariants
	ref, new *reference      // before and after the redefinition
}

func (p *promoteRig) close() {
	p.ref.eng.Close()
	p.new.eng.Close()
}

func setupPromote(seed int64) (*promoteRig, error) {
	p := &promoteRig{}
	for v := int64(0); v < promoteVariants; v++ {
		p.seqs = append(p.seqs, promoteSequence(seed*promoteVariants+v, promoteMaxRounds))
	}
	for i := 0; i < promoteMaxRounds; i++ {
		p.mixed = append(p.mixed, p.seqs[i%promoteVariants][i/promoteVariants])
	}
	var err error
	if p.ref, err = newReference("promote-ref", promoteCorpus); err != nil {
		return nil, err
	}
	if p.new, err = newReference("promote-ref-redef", promoteCorpus+"\n"+promoteRedef); err != nil {
		p.ref.eng.Close()
		return nil, err
	}
	// One untimed episode finishes lazy process set-up before timing.
	if _, err := runEpisode(p.seqs[0], 0, nil, nil); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// histSnapshot returns the named obs histogram's count and total.
func histSnapshot(name string) (count, totalNs float64) {
	for _, h := range obs.Histograms() {
		if h.Name() == name {
			s := h.Snapshot()
			return float64(s.Count), float64(s.TotalNs)
		}
	}
	return 0, 0
}

func runPromote(cfg config) (outcome, error) {
	res := outcome{endToEnd: metrics{}, layers: metrics{}}
	// Every episode compiles cold, whatever workload ran before in this
	// process: without an artifact store, tier compiles cannot load
	// artifacts an earlier run left behind.
	prevStore := core.SetArtifactStore(nil)
	defer core.SetArtifactStore(prevStore)
	p, setupS, err := timedSetup(cfg.setups, func() (*promoteRig, error) { return setupPromote(cfg.seed) }, (*promoteRig).close)
	if err != nil {
		return res, err
	}
	defer p.close()
	res.endToEnd.set("setup_s", setupS, "s")
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	sc0, st0 := histSnapshot("tier_compile_stencil")
	oc0, ot0 := histSnapshot("tier_compile_o2")

	// Each episode is checked as soon as it ends, outside its timed span,
	// and only its timings are kept, so the heap the collector scans does
	// not grow over the run.
	var wall, steady, redef []float64
	var calls float64
	byTier := [3][]float64{}
	var toStencil, toO2, noop []float64
	var stats core.TieringStats
	steps := make([][]episodeSteps, promoteVariants) // per call sequence, each episode's steps
	episodes := 0
	var probe hostProbe
	deadline := time.Now().Add(cfg.duration)
	for id := int64(1); episodes < promoteVariants || time.Now().Before(deadline); id++ {
		v := id % promoteVariants
		ep, err := runEpisode(p.seqs[v], id, rec, nil)
		if err != nil {
			return res, err
		}
		episodes++
		probe.run(2)
		res.attempted++ // the promotion itself
		if !ep.reachedO2 {
			res.failed++
			fmt.Printf("promote: episode did not reach O2 in %d rounds\n", promoteMaxRounds)
			continue
		}
		steps[v] = append(steps[v], episodeSteps{ep.steps, len(ep.calls)})
		wall = append(wall, ms(ep.wall))
		redef = append(redef, ms(ep.redef))
		toStencil = append(toStencil, ep.toStencil...)
		toO2 = append(toO2, ep.toO2...)
		noop = append(noop, ep.noop...)
		addStats(&stats, ep.stats)
		for _, c := range ep.calls {
			res.attempted++
			calls++
			ref := p.ref
			if c.after {
				ref = p.new
			}
			want := ref.eval(c.call.Input)
			if c.err != nil || want.err != nil || c.value != want.value {
				res.failed++
				if res.failed <= 5 {
					fmt.Printf("mismatch: %q: got %q (%v), want %q (%v)\n", c.call.Input, c.value, c.err, want.value, want.err)
				}
			}
			if c.steady {
				steady = append(steady, us(c.dur))
			}
			if !c.after {
				byTier[c.tier] = append(byTier[c.tier], us(c.dur))
			}
		}
	}
	// The comparison's rounds come from every sequence, so vs_ref does not
	// rest on one draw of arguments either.
	cmp, err := runEpisode(p.mixed, 0, nil, p.ref)
	if err != nil {
		return res, err
	}
	res.attempted += len(cmp.cmpTiered) + 1
	res.failed += cmp.cmpFailed
	if !cmp.reachedO2 {
		res.failed++
	}
	res.endToEnd.set("peak_rss_mb", peakRSSMB(), "MB")

	var typical, rate []float64
	for v, runs := range steps {
		t, n := composedEpisode(runs)
		if n == 0 {
			return res, fmt.Errorf("no episode of call sequence %d reached O2", v)
		}
		typical = append(typical, t)
		rate = append(rate, float64(n)/(t/1e3))
	}
	e := res.endToEnd
	e.set("ops_per_s", median(rate), "1/s")
	e.set("p50_ms", median(typical), "ms")
	e.set("write_ms", median(redef), "ms")
	hot := median(steady)
	e.set("hot_us", hot, "us")
	e.set("vs_ref", pairedRatio(cmp.cmpTiered, cmp.cmpRef, len(cmp.cmpTiered)/compareReps), "x")
	fmt.Printf("promote: %d episodes, %.0f calls; typical episode %.3f ms, median episode wall time %.3f ms\n",
		episodes, calls, median(typical), median(wall))
	normalise(e, res.layers, &probe)

	if rec != nil {
		n := float64(len(wall))
		l := res.layers
		for _, m := range []struct {
			name, unit string
			xs         []float64
		}{
			{"kernel.interp_call_us", "us", byTier[tierInterp]},
			{"tier.stencil_call_us", "us", byTier[tierStencil]},
			{"tier.o2_call_us", "us", byTier[tierO2]},
			{"tier.to_stencil_ms", "ms", toStencil},
			{"tier.to_o2_ms", "ms", toO2},
		} {
			if len(m.xs) == 0 {
				return res, fmt.Errorf("no sample for %s", m.name)
			}
			l.set(m.name, median(m.xs), m.unit)
		}
		sc1, st1 := histSnapshot("tier_compile_stencil")
		oc1, ot1 := histSnapshot("tier_compile_o2")
		if sc1 == sc0 || oc1 == oc0 {
			return res, fmt.Errorf("no stencil or no O2 compile recorded")
		}
		l.set("tier.compile_stencil_us", (st1-st0)/(sc1-sc0)/1e3, "us")
		l.set("tier.compile_o2_us", (ot1-ot0)/(oc1-oc0)/1e3, "us")
		l.set("tier.promotions", float64(stats.Promotions)/n, "1/episode")
		l.set("tier.upgrades", float64(stats.Upgrades)/n, "1/episode")
		l.set("tier.compile_failures", float64(stats.CompileFailures)/n, "1/episode")
		l.set("tier.ep_guard_misses", float64(stats.GuardMisses)/n, "1/episode")
		l.set("tier.ep_retires", float64(stats.Retires)/n, "1/episode")
		l.set("engine.noop_us", median(noop), "us")
		if err := rec.write(cfg.spansOut); err != nil {
			return res, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

// episodeSteps are an episode's step times and its number of calls.
type episodeSteps struct {
	steps []float64
	calls int
}

// composedEpisode returns the time (ms) of a typical episode of one call
// sequence, composed of per-step medians: the episodes that took the most
// common number of steps are lined up step by step, and the median time of
// each step is summed. A host that stalls the process now and then slows
// a few episodes' steps, not the median of any step, whereas a slower
// step — a call, a compile waited for, the redefinition — moves its
// median in every episode. It also returns the number of calls in that
// episode.
func composedEpisode(runs []episodeSteps) (total float64, calls int) {
	count := map[int]int{}
	common := 0
	for _, r := range runs {
		n := len(r.steps)
		count[n]++
		if c := count[n]; c > count[common] || c == count[common] && n < common {
			common = n
		}
	}
	var shaped []episodeSteps
	for _, r := range runs {
		if len(r.steps) == common {
			shaped = append(shaped, r)
		}
	}
	if len(shaped) == 0 {
		return 0, 0
	}
	col := make([]float64, len(shaped))
	for i := 0; i < common; i++ {
		for j, r := range shaped {
			col[j] = r.steps[i]
		}
		total += median(col)
	}
	return total, shaped[0].calls
}

// pairedRatio is the geometric mean over inputs of a/b, where a and b hold
// reps passes over the same n inputs, timed alternately, and each input's
// time is its median over the passes.
func pairedRatio(a, b []float64, n int) float64 {
	var ratios []float64
	for i := 0; i < n; i++ {
		var xa, xb []float64
		for j := i; j < len(a); j += n {
			xa, xb = append(xa, a[j]), append(xb, b[j])
		}
		ratios = append(ratios, median(xa)/median(xb))
	}
	return geomean(ratios)
}

func addStats(sum *core.TieringStats, s core.TieringStats) {
	sum.Promotions += s.Promotions
	sum.Upgrades += s.Upgrades
	sum.CompileFailures += s.CompileFailures
	sum.GuardMisses += s.GuardMisses
	sum.Retires += s.Retires
}
