package core

import (
	gort "runtime"
	"sync"
	"sync/atomic"
	"time"

	"wolfc/internal/codegen"
	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/infer"
	"wolfc/internal/kernel"
	"wolfc/internal/obs"
	"wolfc/internal/parser"
	"wolfc/internal/pattern"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// Tiered execution (ISSUE 5, extended by ISSUE 6): the interpreter is tier
// F2, the copy-and-patch stencil backend is the baseline tier F1.5, and
// the full optimising pipeline is tier F1. EnableTiering hooks the
// kernel's DownValues dispatch; the hook counts invocations per symbol and
// sketches the observed argument kinds. A symbol that gets even mildly hot
// (StencilThreshold) is compiled almost immediately on the cheap stencil
// path — no constraint solver, no pass manager, straight table lookup from
// TWIR instruction shapes to pre-built closure templates — and installed.
// If it stays hot (Threshold compiled calls), the same definition is
// recompiled through the full pipeline and the registry entry is re-pointed
// in place (Registry.Upgrade), so dependents' baked call sites pick up the
// optimised code on their next atomic load. Definitions the stencil tier
// cannot hold (uncovered instruction shapes, non-scalar types) skip
// straight to the optimised pipeline.
//
// Compilation runs on a bounded pool of background workers (at most
// GOMAXPROCS); each worker owns its own Compiler pair so concurrent
// compiles never share mutable front-end state. Per-symbol ordering is
// preserved by the status machine: a symbol is queued for promotion only
// from the idle state, and for upgrade only from the installed state, so
// two jobs for one symbol are never in flight together. The compiled path
// is guarded (F2-style): an argument outside the compiled signature, or a
// soft runtime failure, silently falls through to the interpreter rules,
// so tiering never changes results — only how fast they arrive.
// Redefinition (Set/SetDelayed/Clear) retires the registry entry, cascades
// through dependents, and invalidates dependent compile-cache entries; the
// symbol re-earns promotion under its new definition, and any in-flight
// compile for the old definition is discarded at install time.

// TierPolicy tunes the promotion engine.
type TierPolicy struct {
	// Threshold is the invocation count at which a symbol graduates to the
	// fully optimised tier: interpreted dispatches when the stencil tier is
	// disabled, stencil-compiled calls otherwise. 0 means the default (50).
	Threshold uint64
	// StencilThreshold is the interpreted-dispatch count at which a symbol
	// is promoted to the stencil baseline tier. 0 means Threshold/5,
	// clamped to at least 2 — hot symbols leave the interpreter almost
	// immediately.
	StencilThreshold uint64
	// DisableStencil skips the baseline tier: hot symbols go straight from
	// the interpreter to the optimised pipeline at Threshold (the pre-ISSUE
	// 6 behaviour).
	DisableStencil bool
	// DisableO2 pins promoted symbols to the stencil tier: no upgrade hop.
	// Used by the differential harness to exercise stencil code in steady
	// state. Definitions the stencil backend cannot hold still compile
	// through the full pipeline (correctness beats tier purity).
	DisableO2 bool
	// Workers bounds the background compile pool. 0 means GOMAXPROCS;
	// values above GOMAXPROCS are clamped to it.
	Workers int
	// MaxGroup bounds a mutual-recursion compile group. 0 means 6.
	MaxGroup int
	// FailureLimit retires a compiled entry after this many soft runtime
	// failures (each already fell back to the interpreter, so this only
	// stops paying for guards that always fail). 0 means 8.
	FailureLimit int
}

func (p TierPolicy) withDefaults() TierPolicy {
	if p.Threshold == 0 {
		p.Threshold = 50
	}
	if p.StencilThreshold == 0 {
		p.StencilThreshold = p.Threshold / 5
		if p.StencilThreshold < 2 {
			p.StencilThreshold = 2
		}
	}
	if p.MaxGroup == 0 {
		p.MaxGroup = 6
	}
	if p.FailureLimit == 0 {
		p.FailureLimit = 8
	}
	if max := gort.GOMAXPROCS(0); p.Workers <= 0 || p.Workers > max {
		p.Workers = max
	}
	return p
}

// TieringStats is a snapshot of the engine's activity.
type TieringStats struct {
	Tracked           int    // symbols observed at dispatch
	Installed         int    // symbols currently on a compiled tier
	StencilInstalled  int    // subset of Installed still on the stencil tier
	Promotions        uint64 // definitions successfully compiled and installed
	StencilPromotions uint64 // promotions whose first compiled tier was the stencil
	Upgrades          uint64 // stencil entries re-pointed at optimised code
	CompileFailures   uint64 // promotion attempts that did not produce code
	Retires           uint64 // entries uninstalled by redefinition or failure
	CompiledCalls     uint64 // dispatches served by compiled code
	GuardMisses       uint64 // dispatches that missed the compiled signature
	SoftFallbacks     uint64 // compiled runs that soft-failed to the interpreter
	Aborts            uint64 // compiled runs ended by abort
}

// Package-level mirrors of the per-engine stats for /metrics, plus the
// per-tier compile-latency histograms and the queue-depth gauge: the
// compile-latency story is the point of the baseline tier, so it is
// first-class observable.
var (
	ctrTierPromotions        = obs.NewCounter("tier_promotions")
	ctrTierStencilPromotions = obs.NewCounter("tier_stencil_promotions")
	ctrTierUpgrades          = obs.NewCounter("tier_upgrades")
	ctrTierCompileFailures   = obs.NewCounter("tier_compile_failures")
	ctrTierRetires           = obs.NewCounter("tier_retires")
	ctrTierCompiledCalls     = obs.NewCounter("tier_compiled_calls")
	ctrTierGuardMisses       = obs.NewCounter("tier_guard_misses")
	ctrTierSoftFallbacks     = obs.NewCounter("tier_soft_fallbacks")

	histStencilCompile = obs.NewHistogram("tier_compile_stencil")
	histO2Compile      = obs.NewHistogram("tier_compile_o2")

	tierQueueDepth atomic.Int64
)

func init() {
	obs.RegisterGaugeProvider(func() []obs.Gauge {
		return []obs.Gauge{
			{Name: "tier_compile_queue_depth", Value: float64(tierQueueDepth.Load())},
		}
	})
}

type symStatus int

const (
	symIdle symStatus = iota
	symQueued
	symInstalled
	symFailed
)

// tierLevel identifies which compiled tier currently serves a symbol.
type tierLevel int

const (
	tierNone    tierLevel = iota
	tierStencil           // F1.5: copy-and-patch baseline
	tierO2                // F1: full optimising pipeline
)

// symState is the per-symbol tiering record. All fields are guarded by
// Tiering.mu except tierCalls, which the compiled hot path bumps without
// the lock.
type symState struct {
	sym           *expr.Symbol
	count         uint64       // interpreted dispatches under the current sketch
	nextTry       uint64       // count gate for the next promotion attempt
	kinds         []types.Type // argument-kind sketch from observed dispatches
	defSeq        uint64       // bumped on every definition change
	status        symStatus
	tier          tierLevel // which compiled tier, while installed
	entry         *fnreg.Entry
	ccf           *CompiledCodeFunction
	srcFn         expr.Expr // synthesized source, kept for the upgrade recompile
	softFails     uint64    // soft-failure tally while installed
	upgradeQueued bool      // an O2 upgrade job is queued or in flight

	tierCalls atomic.Uint64 // successful compiled calls on the current tier
}

// tierMember is one definition snapshot handed to a compile worker.
type tierMember struct {
	sym    *expr.Symbol
	name   string
	fn     expr.Expr // synthesized Function[{Typed...}, body]
	kinds  []types.Type
	defSeq uint64
	// span is the request span active when the promotion was queued (the
	// evaluating goroutine that crossed the threshold), so the background
	// compile's trace events link to the request that made the symbol hot.
	span obs.SpanContext
}

// tierUpgrade is a stencil→optimised recompile request for an installed
// entry. The entry pointer pins the exact installation generation: if the
// symbol was redefined (or demoted) while the recompile was in flight, the
// identity check fails and the result is discarded.
type tierUpgrade struct {
	sym    *expr.Symbol
	name   string
	fn     expr.Expr
	defSeq uint64
	entry  *fnreg.Entry
	span   obs.SpanContext // request active when the upgrade trigger fired
}

// tierJob is one unit of background work: either a promotion group or an
// upgrade (exactly one field is set).
type tierJob struct {
	members []*tierMember
	upgrade *tierUpgrade
}

// Tiering is one kernel's tiered-execution engine.
type Tiering struct {
	k   *kernel.Kernel
	c   *Compiler       // dedicated compiler: env lookups and the engine handle
	reg *fnreg.Registry // the kernel's registry namespace
	pol TierPolicy

	mu    sync.Mutex
	syms  map[*expr.Symbol]*symState
	stats TieringStats

	// Hot-path counters, outside mu.
	compiledCalls atomic.Uint64
	guardMisses   atomic.Uint64
	softFallbacks atomic.Uint64
	aborts        atomic.Uint64

	// queueDepth mirrors the engine's share of tierQueueDepth for the
	// per-engine gauge; releaseGauges unregisters it on Close.
	queueDepth    atomic.Int64
	releaseGauges func()

	jobs     chan tierJob
	wg       sync.WaitGroup // the worker pool
	inflight sync.WaitGroup // queued-but-not-installed jobs
	closed   bool
}

// EnableTiering attaches a tiered-execution engine to k and starts its
// background compile pool. Promotions Reserve/Install into the kernel's
// function registry, workers compile against it, and redefinition
// invalidation retires from it, so tiered kernels in one process promote
// the same symbol names independently. Call Close to detach and stop the
// workers. The engine installs the kernel's dispatch hook and definition
// observer; only one engine per kernel.
func EnableTiering(k *kernel.Kernel, pol TierPolicy) *Tiering {
	c := NewCompiler(k)
	t := &Tiering{
		k:    k,
		c:    c,
		reg:  c.reg,
		pol:  pol.withDefaults(),
		syms: map[*expr.Symbol]*symState{},
		jobs: make(chan tierJob, 64),
	}
	if id := c.reg.ID(); id != "" {
		t.releaseGauges = obs.RegisterEngineGauges(id, func() []obs.Gauge {
			return []obs.Gauge{
				{Name: "tier_compile_queue_depth", Value: float64(t.queueDepth.Load()), Engine: id},
			}
		})
	}
	k.SetDispatchHook(t.dispatch)
	k.SetDefObserver(t.defChanged)
	for i := 0; i < t.pol.Workers; i++ {
		t.wg.Add(1)
		go t.worker()
	}
	return t
}

// Close detaches the engine from the kernel and stops the workers. Must be
// called from the evaluating goroutine (like evaluation itself).
func (t *Tiering) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.mu.Unlock()
	t.k.SetDispatchHook(nil)
	t.k.SetDefObserver(nil)
	close(t.jobs)
	t.wg.Wait()
	if t.releaseGauges != nil {
		t.releaseGauges()
	}
}

// WaitIdle blocks until every queued compile has installed (or failed,
// or been discarded). Tests and benchmarks use it to make promotion
// deterministic.
func (t *Tiering) WaitIdle() { t.inflight.Wait() }

// Stats snapshots the engine counters.
func (t *Tiering) Stats() TieringStats {
	t.mu.Lock()
	s := t.stats
	s.Tracked = len(t.syms)
	s.Installed, s.StencilInstalled = 0, 0
	for _, st := range t.syms {
		if st.status == symInstalled {
			s.Installed++
			if st.tier == tierStencil {
				s.StencilInstalled++
			}
		}
	}
	t.mu.Unlock()
	s.CompiledCalls = t.compiledCalls.Load()
	s.GuardMisses = t.guardMisses.Load()
	s.SoftFallbacks = t.softFallbacks.Load()
	s.Aborts = t.aborts.Load()
	return s
}

// Compiled reports whether sym is currently served by compiled code (on
// either compiled tier).
func (t *Tiering) Compiled(sym *expr.Symbol) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.syms[sym]
	return st != nil && st.status == symInstalled
}

// OnStencilTier reports whether sym is currently served by the stencil
// baseline tier (as opposed to the optimised tier).
func (t *Tiering) OnStencilTier(sym *expr.Symbol) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.syms[sym]
	return st != nil && st.status == symInstalled && st.tier == tierStencil
}

// dispatch is the kernel hook: called on the evaluating goroutine for every
// DownValues application, with the arguments already evaluated.
func (t *Tiering) dispatch(k *kernel.Kernel, head *expr.Symbol, call *expr.Normal) (expr.Expr, bool) {
	t.mu.Lock()
	st := t.syms[head]
	if st == nil {
		st = &symState{sym: head}
		t.syms[head] = st
	}
	if st.status == symInstalled {
		ccf := st.ccf
		// The upgrade hop triggers off successful calls served by the
		// stencil tier; once an upgrade is queued the trigger disarms.
		hop := st.tier == tierStencil && !st.upgradeQueued && !t.pol.DisableO2
		// The lock is released before running compiled code: the engine can
		// escape back into the evaluator (KernelFunction) and re-enter this
		// hook.
		t.mu.Unlock()
		return t.applyCompiled(st, ccf, call.Args(), hop)
	}
	// Interpreted tier: sketch the argument kinds and count.
	kinds := sketchKinds(call.Args())
	if kinds == nil {
		// Not machine-numeric arguments; never promotable for this call
		// shape, and not evidence against the current sketch either.
		t.mu.Unlock()
		return nil, false
	}
	if st.kinds == nil || !kindsEqual(st.kinds, kinds) {
		st.kinds = kinds
		st.count = 1
	} else {
		st.count++
	}
	gate := t.pol.Threshold
	if !t.pol.DisableStencil {
		gate = t.pol.StencilThreshold
	}
	if st.status == symIdle && st.count >= gate && st.count >= st.nextTry {
		t.tryPromote(st)
	}
	t.mu.Unlock()
	return nil, false
}

// sketchMaxElems bounds the per-dispatch element scan for list arguments:
// sketching runs on every interpreted dispatch, so a huge list must not
// turn dispatch into an O(n) walk. Longer lists simply never sketch (the
// symbol stays interpreted for that call shape).
const sketchMaxElems = 256

// sketchKinds maps evaluated call arguments to compiled-parameter kinds;
// nil when any argument is outside the machine-numeric fragment. Scalars
// sketch as Integer64/Real64; a homogeneous list of machine scalars
// sketches as a rank-1 tensor, which is what lets list-destructuring
// patterns ({x_, y_}) promote.
func sketchKinds(args []expr.Expr) []types.Type {
	kinds := make([]types.Type, len(args))
	for i, a := range args {
		switch x := a.(type) {
		case *expr.Integer:
			if !x.IsMachine() {
				return nil
			}
			kinds[i] = types.TInt64
		case *expr.Real:
			kinds[i] = types.TReal64
		case *expr.Normal:
			if x.Head() != expr.SymList || x.Len() > sketchMaxElems {
				return nil
			}
			elem := sketchElemKind(x)
			if elem == nil {
				return nil
			}
			kinds[i] = types.TensorOf(elem, 1)
		default:
			return nil
		}
	}
	return kinds
}

// sketchElemKind is the homogeneous machine kind of a list's elements
// (an empty list sketches as integer). Mixed or nested lists return nil.
func sketchElemKind(l *expr.Normal) types.Type {
	kind := types.TInt64
	for i, a := range l.Args() {
		switch x := a.(type) {
		case *expr.Integer:
			if !x.IsMachine() || kind != types.TInt64 {
				return nil
			}
		case *expr.Real:
			if i == 0 {
				kind = types.TReal64
			} else if kind != types.TReal64 {
				return nil
			}
		default:
			return nil
		}
	}
	return kind
}

// strictKind reports whether a is exactly of the machine kind the compiled
// entry was specialised against. Unbox is deliberately lenient (it coerces
// an Integer into a Real64 slot), which is fine for value conversion but
// wrong for dispatch: the decision tree resolved head tests like _Integer
// and _Real statically against the sketch, so an argument of a different
// kind must take the interpreter path instead of being coerced into
// branches the matcher would not choose. Types outside the dispatch
// fragment return true and defer to Unbox.
func strictKind(a expr.Expr, t types.Type) bool {
	switch t {
	case types.TInt64:
		x, ok := a.(*expr.Integer)
		return ok && x.IsMachine()
	case types.TReal64:
		_, ok := a.(*expr.Real)
		return ok
	}
	if c, ok := t.(*types.Compound); ok && c.Ctor == "Tensor" && len(c.Args) == 2 {
		if r, ok := c.Args[1].(*types.Literal); ok && r.Value == 1 {
			l, ok := a.(*expr.Normal)
			if !ok || l.Head() != expr.SymList {
				return false
			}
			for _, e := range l.Args() {
				if !strictKind(e, c.Args[0]) {
					return false
				}
			}
			return true
		}
	}
	return true
}

func kindsEqual(a, b []types.Type) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !types.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// tryPromote (t.mu held, evaluating goroutine) builds the compile group
// rooted at st and queues it on the worker pool.
func (t *Tiering) tryPromote(st *symState) {
	if t.closed {
		return
	}
	members, transient := t.buildGroup(st)
	if members == nil {
		if transient {
			st.nextTry = st.count + t.pol.Threshold
		} else {
			st.status = symFailed
			t.stats.CompileFailures++
			ctrTierCompileFailures.Inc()
		}
		return
	}
	// Capture the triggering request's span here, on the evaluating
	// goroutine: by the time a worker picks the job up the kernel may be
	// evaluating some other tenant-visible request.
	span := t.c.activeSpan()
	for _, m := range members {
		m.span = span
		t.syms[m.sym].status = symQueued
	}
	t.inflight.Add(1)
	select {
	case t.jobs <- tierJob{members: members}:
		tierQueueDepth.Add(1)
		t.queueDepth.Add(1)
	default:
		// Worker backlog: revert and retry later.
		for _, m := range members {
			ms := t.syms[m.sym]
			ms.status = symIdle
			ms.nextTry = ms.count + t.pol.Threshold
		}
		t.inflight.Done()
	}
}

// maybeQueueUpgrade queues a stencil→optimised recompile for st once it has
// proven hot on the stencil tier. Caller does not hold t.mu.
func (t *Tiering) maybeQueueUpgrade(st *symState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || st.status != symInstalled || st.tier != tierStencil ||
		st.upgradeQueued || t.pol.DisableO2 {
		return
	}
	u := &tierUpgrade{sym: st.sym, name: st.sym.Name, fn: st.srcFn,
		defSeq: st.defSeq, entry: st.entry, span: t.c.activeSpan()}
	st.upgradeQueued = true
	t.inflight.Add(1)
	select {
	case t.jobs <- tierJob{upgrade: u}:
		tierQueueDepth.Add(1)
		t.queueDepth.Add(1)
	default:
		// Worker backlog: re-arm the trigger for another Threshold calls.
		st.upgradeQueued = false
		st.tierCalls.Store(0)
		t.inflight.Done()
	}
}

// buildGroup analyzes st's definition and every reachable DownValue
// definition it calls (the mutual-recursion closure), bounded by MaxGroup.
// Returns (nil, true) for transient obstructions (a partner has no sketch
// yet, or is mid-compile) and (nil, false) for structural ones (the
// definition shape is not compilable).
func (t *Tiering) buildGroup(root *symState) ([]*tierMember, bool) {
	var members []*tierMember
	visited := map[*expr.Symbol]bool{root.sym: true}
	queue := []*symState{root}
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		if len(members) >= t.pol.MaxGroup {
			return nil, false
		}
		if len(t.c.TypeEnv.Lookup(st.sym.Name)) > 0 {
			// The name shadows a compiler declaration; promoting it would
			// change which definition compiled callers bind.
			return nil, false
		}
		rules := append([]pattern.Rule{}, t.k.DownValues(st.sym)...)
		p, err := analyzeDownValues(t.k, st.sym, rules, st.kinds)
		if err != nil {
			return nil, false
		}
		members = append(members, &tierMember{
			sym:    st.sym,
			name:   st.sym.Name,
			fn:     synthesizeDownValues(p),
			kinds:  st.kinds,
			defSeq: st.defSeq,
		})
		for _, dep := range p.deps {
			if visited[dep] {
				continue
			}
			visited[dep] = true
			ds := t.syms[dep]
			if ds == nil || ds.kinds == nil {
				// Partner never dispatched with machine arguments yet; it
				// may still warm up.
				return nil, true
			}
			switch ds.status {
			case symInstalled:
				continue // resolves through its live registry entry
			case symQueued:
				return nil, true
			case symFailed:
				return nil, false
			}
			queue = append(queue, ds)
		}
	}
	return members, false
}

// worker is one background compile goroutine. Each worker owns its own
// Compiler pair (full pipeline and stencil), so concurrent compiles never
// share mutable front-end state; all workers serve one kernel.
func (t *Tiering) worker() {
	defer t.wg.Done()
	full := NewCompiler(t.k)
	stencil := NewCompiler(t.k)
	stencil.Stencil = true
	// Workers compile asynchronously: the kernel's live span belongs to
	// whatever request is evaluating NOW, not the one that queued this job,
	// so implicit span resolution is off and jobs carry their span
	// explicitly (tierMember.span / tierUpgrade.span).
	full.DisableImplicitSpan = true
	stencil.DisableImplicitSpan = true
	// Pre-warm both compilers off the critical path: the first compile on a
	// fresh Compiler pays lazy environment initialisation and first-touch
	// allocation growth (~3× a steady-state compile), which would otherwise
	// land on the first promotion — exactly the latency the baseline tier
	// exists to remove.
	warm := parser.MustParse(`Function[{Typed[w, "MachineInteger"]}, w + 1]`)
	_, _ = stencil.FunctionCompileRequest(warm, CompileRequest{})
	_, _ = full.FunctionCompileRequest(warm, CompileRequest{})
	for job := range t.jobs {
		tierQueueDepth.Add(-1)
		t.queueDepth.Add(-1)
		if job.upgrade != nil {
			t.upgradeJob(full, job.upgrade)
		} else {
			t.compileJob(full, stencil, job)
		}
		t.inflight.Done()
	}
}

// compileOne compiles one member on the cheapest admissible tier: the
// stencil backend first (unless disabled), falling back to the full
// pipeline when the definition leaves the stencil fragment (uncovered
// instruction shape, non-scalar types). Compile latency feeds the per-tier
// histograms.
//
// shared routes the compile through the process-wide compile cache (and
// its disk tier): a promotion this process — or, with an artifact store
// attached, any previous process — has compiled before skips the
// pipeline. Only self-contained members may share: group members bake
// registry calls to entries reserved for this specific promotion, and
// those reservations die with the job on failure, which would leave a
// cached entry pointing at retired registry slots.
func (t *Tiering) compileOne(full, stencil *Compiler, m *tierMember, shared bool) (*CompiledCodeFunction, tierLevel, error) {
	req := CompileRequest{SelfName: m.name, Span: m.span}
	if !t.pol.DisableStencil {
		t0 := time.Now()
		var ccf *CompiledCodeFunction
		var err error
		if shared {
			ccf, _, err = stencil.FunctionCompileCachedRequest(m.fn, req)
		} else {
			ccf, err = stencil.FunctionCompileRequest(m.fn, req)
		}
		if err == nil {
			histStencilCompile.Observe(time.Since(t0))
			return ccf, tierStencil, nil
		}
	}
	t0 := time.Now()
	var ccf *CompiledCodeFunction
	var err error
	if shared {
		ccf, _, err = full.FunctionCompileCachedRequest(m.fn, req)
	} else {
		ccf, err = full.FunctionCompileRequest(m.fn, req)
	}
	if err != nil {
		return nil, tierNone, err
	}
	histO2Compile.Observe(time.Since(t0))
	return ccf, tierO2, nil
}

// compileJob compiles a promotion group and installs it atomically.
func (t *Tiering) compileJob(full, stencil *Compiler, job tierJob) {
	members := job.members
	entries := make([]*fnreg.Entry, len(members))
	ccfs := make([]*CompiledCodeFunction, len(members))
	tiers := make([]tierLevel, len(members))
	fail := func() {
		for _, e := range entries {
			t.reg.RetireEntry(e)
		}
		t.mu.Lock()
		for _, m := range members {
			if st := t.syms[m.sym]; st != nil && st.defSeq == m.defSeq && st.status == symQueued {
				st.status = symFailed
			}
		}
		t.stats.CompileFailures++
		t.mu.Unlock()
		ctrTierCompileFailures.Inc()
	}
	// A Reserve conflict is transient under the worker pool: another
	// worker may still hold a reservation it is about to discard (stale
	// compile racing a redefinition). Back off and re-earn promotion
	// rather than permanently failing the symbol.
	failTransient := func() {
		for _, e := range entries {
			t.reg.RetireEntry(e)
		}
		t.mu.Lock()
		for _, m := range members {
			if st := t.syms[m.sym]; st != nil && st.defSeq == m.defSeq && st.status == symQueued {
				st.status = symIdle
				st.nextTry = st.count + t.pol.Threshold
			}
		}
		t.mu.Unlock()
	}

	if len(members) == 1 {
		// A self-contained (or self-recursive) definition: compile, then
		// register. Calls to already installed entries resolve through the
		// registry during inference (full pipeline) or the quick typer
		// (stencil path).
		m := members[0]
		ccf, tier, err := t.compileOne(full, stencil, m, true)
		if err != nil {
			fail()
			return
		}
		sig := &types.Fn{Params: ccf.ParamTypes, Ret: ccf.RetType}
		ent, err := t.reg.Reserve(m.name, sig, nil)
		if err != nil {
			failTransient()
			return
		}
		ent.AddDeps(ccf.RegDeps)
		entries[0], ccfs[0], tiers[0] = ent, ccf, tier
		t.install(members, entries, ccfs, tiers)
		return
	}

	// Mutual-recursion group. Ground signatures must exist before any
	// member compiles (each member's cross-calls resolve against the
	// others' reserved entries), so a typing pre-pass lowers every member
	// into one merged module — where the members see each other as module
	// functions — and infers it as a whole. The per-member compiles then
	// run on the cheapest admissible tier; the quick typer resolves
	// partners through the reserved entries exactly as full inference does.
	merged := &wir.Module{}
	for _, m := range members {
		sub, err := full.BuildWIR(m.fn)
		if err != nil {
			fail()
			return
		}
		for _, sf := range sub.Funcs {
			if sf.Name == "Main" {
				sf.Name = m.name
			} else {
				sf.Name = m.name + "`" + sf.Name
			}
			sf.Module = merged
			merged.Funcs = append(merged.Funcs, sf)
		}
	}
	if err := infer.Infer(merged, full.TypeEnv, t.reg); err != nil {
		fail()
		return
	}
	for i, m := range members {
		f := merged.FuncByName(m.name)
		if f == nil || !types.IsGround(f.FnType()) {
			fail()
			return
		}
		deps := make([]string, 0, len(members)-1)
		for _, o := range members {
			if o != m {
				deps = append(deps, o.name)
			}
		}
		ent, err := t.reg.Reserve(m.name, f.FnType(), deps)
		if err != nil {
			failTransient()
			return
		}
		entries[i] = ent
	}
	for i, m := range members {
		ccf, tier, err := t.compileOne(full, stencil, m, false)
		if err != nil {
			fail()
			return
		}
		if !types.Equal(ccf.RetType, entries[i].Sig().Ret) {
			fail()
			return
		}
		entries[i].AddDeps(ccf.RegDeps)
		ccfs[i], tiers[i] = ccf, tier
	}
	t.install(members, entries, ccfs, tiers)
}

// upgradeJob recompiles an installed stencil entry through the full
// pipeline and re-points the registry binding in place. The entry identity
// pins the installation generation: a redefinition or demotion while the
// compile was in flight makes the check fail and the result is discarded
// (the symbol keeps whatever is correct now).
func (t *Tiering) upgradeJob(full *Compiler, u *tierUpgrade) {
	t0 := time.Now()
	// Upgrades are self-contained recompiles (the stencil entry already
	// installed stands alone), so they share the process-wide cache and
	// its disk tier like first promotions do.
	ccf, _, err := full.FunctionCompileCachedRequest(u.fn, CompileRequest{SelfName: u.name, Span: u.span})
	if err != nil {
		// The stencil result stays installed — it is correct, just not
		// optimised. The trigger stays disarmed: a pipeline that failed
		// once on this definition will fail again.
		t.mu.Lock()
		t.stats.CompileFailures++
		t.mu.Unlock()
		ctrTierCompileFailures.Inc()
		return
	}
	histO2Compile.Observe(time.Since(t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.syms[u.sym]
	if st == nil || st.defSeq != u.defSeq || st.status != symInstalled || st.entry != u.entry {
		return // redefined or demoted while compiling: discard
	}
	sig := &types.Fn{Params: ccf.ParamTypes, Ret: ccf.RetType}
	if !types.Equal(sig, u.entry.Sig()) {
		return // the optimised pipeline typed it differently; keep the stencil
	}
	if !t.reg.Upgrade(u.entry, ccf.FunctionValue(), ccf) {
		return // lost a race with retirement
	}
	u.entry.AddDeps(ccf.RegDeps)
	st.ccf = ccf
	st.tier = tierO2
	st.tierCalls.Store(0)
	t.stats.Upgrades++
	ctrTierUpgrades.Inc()
}

// install publishes a compiled group: all members or none. A member whose
// definition changed while the compile was in flight (defSeq mismatch)
// poisons the whole group — its partners' code bakes calls to the stale
// reservation.
func (t *Tiering) install(members []*tierMember, entries []*fnreg.Entry, ccfs []*CompiledCodeFunction, tiers []tierLevel) {
	t.mu.Lock()
	stale := false
	for _, m := range members {
		st := t.syms[m.sym]
		if st == nil || st.defSeq != m.defSeq || st.status != symQueued {
			stale = true
			break
		}
	}
	if stale {
		for _, m := range members {
			if st := t.syms[m.sym]; st != nil && st.status == symQueued {
				st.status = symIdle
			}
		}
		t.mu.Unlock()
		for _, e := range entries {
			t.reg.RetireEntry(e)
		}
		return
	}
	for i, m := range members {
		t.reg.Install(entries[i], ccfs[i].FunctionValue(), ccfs[i])
		st := t.syms[m.sym]
		st.entry = entries[i]
		st.ccf = ccfs[i]
		st.status = symInstalled
		st.tier = tiers[i]
		st.srcFn = m.fn
		st.upgradeQueued = false
		st.softFails = 0
		st.tierCalls.Store(0)
		st.count = 0
		st.nextTry = 0
		t.stats.Promotions++
		ctrTierPromotions.Inc()
		if tiers[i] == tierStencil {
			t.stats.StencilPromotions++
			ctrTierStencilPromotions.Inc()
		}
	}
	t.mu.Unlock()
}

// defChanged is the kernel's definition observer (evaluating goroutine):
// Set/SetDelayed/Clear on a symbol with DownValues lands here. The symbol's
// compiled entry is retired; the retirement cascades through registry
// dependents, whose dispatch states drop back to the interpreted tier; and
// compile-cache entries that baked calls to any retired entry are dropped.
func (t *Tiering) defChanged(s *expr.Symbol) {
	t.mu.Lock()
	st := t.syms[s]
	if st == nil {
		st = &symState{sym: s}
		t.syms[s] = st
	}
	st.defSeq++
	st.count = 0
	st.nextTry = 0
	st.kinds = nil
	st.status = symIdle
	st.tier = tierNone
	st.entry = nil
	st.ccf = nil
	st.srcFn = nil
	st.softFails = 0
	st.upgradeQueued = false
	st.tierCalls.Store(0)
	retired := t.reg.Retire(s.Name)
	for _, name := range retired {
		if name == s.Name {
			continue
		}
		// Dependents keep their definitions and heat; they just lose their
		// compiled tier and re-promote against the new registry state.
		if ds := t.syms[expr.Sym(name)]; ds != nil && ds.status == symInstalled {
			ds.status = symIdle
			ds.tier = tierNone
			ds.entry = nil
			ds.ccf = nil
			ds.srcFn = nil
			ds.upgradeQueued = false
		}
	}
	if n := len(retired); n > 0 {
		t.stats.Retires += uint64(n)
		ctrTierRetires.Add(uint64(n))
	}
	t.mu.Unlock()
	if len(retired) > 0 {
		gone := map[string]bool{}
		for _, n := range retired {
			gone[n] = true
		}
		InvalidateCompileCache(func(ccf *CompiledCodeFunction) bool {
			for _, d := range ccf.RegDeps {
				if gone[d] {
					return true
				}
			}
			return false
		})
	}
}

// applyCompiled runs one dispatch through the compiled tier. ok=false means
// the caller (the kernel) proceeds with pattern matching exactly as if no
// hook existed — the guarantee that tiering is invisible in results. This
// mirrors CompiledCodeFunction.Apply but never re-evaluates through the
// interpreter itself and never prints: the kernel's own rule path is the
// fallback, keeping output bit-identical to an untired kernel. hop arms the
// stencil→optimised trigger: once Threshold successful calls land on the
// stencil tier, an upgrade recompile is queued.
func (t *Tiering) applyCompiled(st *symState, ccf *CompiledCodeFunction, args []expr.Expr, hop bool) (out expr.Expr, ok bool) {
	if len(args) != len(ccf.ParamTypes) {
		t.guardMisses.Add(1)
		ctrTierGuardMisses.Inc()
		return nil, false
	}
	raw := make([]any, len(args))
	for i, a := range args {
		if !strictKind(a, ccf.ParamTypes[i]) {
			// The argument is outside the kind the entry was specialised
			// against (an Integer where the sketch saw Reals, a mixed
			// list, ...): interpreter rules handle it (F2 guard miss).
			// Unbox alone is too lenient here — it coerces an Integer
			// into a Real64 slot — and the dispatch tree resolved its
			// pattern tests statically against the sketch, so a coerced
			// argument could take branches the matcher would not.
			t.guardMisses.Add(1)
			ctrTierGuardMisses.Inc()
			ccf.Metrics.RecordFallback()
			return nil, false
		}
		v, u := runtime.Unbox(a, ccf.ParamTypes[i])
		if !u {
			// E.g. a bignum into a machine-integer slot: interpreter rules
			// handle it (F2-style guard miss).
			t.guardMisses.Add(1)
			ctrTierGuardMisses.Inc()
			ccf.Metrics.RecordFallback()
			return nil, false
		}
		raw[i] = v
	}
	defer func() {
		if r := recover(); r != nil {
			exc, isExc := r.(*runtime.Exception)
			if !isExc {
				panic(r)
			}
			if exc.Kind == runtime.ExcAbort {
				// The kernel's abort flag is still set; the evaluator loop
				// unwinds to $Aborted exactly as an interpreted abort does.
				t.aborts.Add(1)
				ccf.Metrics.RecordAbort()
				out, ok = expr.SymAborted, true
				return
			}
			if exc.Kind == runtime.ExcNoMatch {
				// The compiled dispatch tree proved no DownValue rule
				// matches these arguments: an F2 guard miss, not a soft
				// failure. The interpreter rules run and produce whatever
				// an untired kernel would (usually the unevaluated call).
				// Misses are a property of the arguments, so they never
				// count toward the soft-failure retirement limit.
				t.guardMisses.Add(1)
				ctrTierGuardMisses.Inc()
				ccf.Metrics.RecordFallback()
				out, ok = nil, false
				return
			}
			// Soft runtime failure (overflow, retired callee, kernel
			// escape): silently hand the call to the interpreter rules.
			t.softFallbacks.Add(1)
			ctrTierSoftFallbacks.Inc()
			ccf.Metrics.RecordFallback()
			t.noteSoftFailure(st)
			out, ok = nil, false
		}
	}()
	rec := obs.Enabled()
	var t0 time.Time
	var tStart int64
	if rec && obs.TraceEnabled() {
		tStart = obs.TraceNow()
	}
	if rec {
		t0 = time.Now()
	}
	rt := &codegen.RT{Engine: t.c.Engine(), Workers: ccf.Program.Parallelism}
	res := ccf.Program.Main.CallValues(rt, raw...)
	if rec {
		d := time.Since(t0)
		ccf.Metrics.RecordInvoke(d)
		// Tier-dispatch invokes were previously invisible on the trace
		// stream (only CompiledCodeFunction.Apply emitted); with request
		// spans they are the serve→invoke edge of the trace tree. This
		// runs on the evaluating goroutine, so the kernel's span is the
		// right one.
		if obs.TraceEnabled() {
			if sc := t.c.activeSpan(); !sc.Suppressed() {
				ev := obs.TraceEvent{Type: "invoke", Name: ccf.Metrics.Name(),
					TNs: tStart, DurNs: d.Nanoseconds(), Backend: ccf.Metrics.Backend(),
					Engine: t.c.engineLabel()}
				sc.Annotate(&ev)
				obs.Emit(ev)
			}
		}
	}
	t.compiledCalls.Add(1)
	ctrTierCompiledCalls.Inc()
	if hop {
		if n := st.tierCalls.Add(1); n >= t.pol.Threshold {
			t.maybeQueueUpgrade(st)
		}
	}
	if ccf.RetType == types.TVoid {
		return expr.SymNull, true
	}
	return runtime.Box(res, ccf.RetType), true
}

// noteSoftFailure demotes a compiled entry whose guards pass but whose body
// keeps soft-failing: every such call already paid a compiled attempt plus
// an interpreted evaluation.
func (t *Tiering) noteSoftFailure(st *symState) {
	t.mu.Lock()
	if st.status != symInstalled {
		t.mu.Unlock()
		return
	}
	st.softFails++
	if st.softFails < uint64(t.pol.FailureLimit) {
		t.mu.Unlock()
		return
	}
	entry := st.entry
	st.status = symFailed
	st.tier = tierNone
	st.entry = nil
	st.ccf = nil
	st.srcFn = nil
	st.softFails = 0
	st.upgradeQueued = false
	t.mu.Unlock()
	retired := t.reg.RetireEntry(entry)
	t.mu.Lock()
	for _, name := range retired {
		if ds := t.syms[expr.Sym(name)]; ds != nil && ds.status == symInstalled {
			ds.status = symIdle
			ds.tier = tierNone
			ds.entry = nil
			ds.ccf = nil
			ds.srcFn = nil
			ds.upgradeQueued = false
		}
	}
	if n := len(retired); n > 0 {
		t.stats.Retires += uint64(n)
		ctrTierRetires.Add(uint64(n))
	}
	t.mu.Unlock()
}
