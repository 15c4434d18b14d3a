package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	gort "runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"wolfc/internal/artifact"
	"wolfc/internal/core"
	"wolfc/internal/engine"
	"wolfc/internal/expr"
	"wolfc/internal/parser"
	"wolfc/internal/serve"
)

// The serve workload: sessions on one in-process wolfserve, configured like
// the command's defaults (autocompile on, threshold 50, one tier worker,
// shared in-memory artifact store, program tracing off), driven over real
// loopback TCP by serveClients goroutines with one connection each. After
// an untimed warm-up of a fixed number of requests, an open loop at the
// fixed openLoopRate measures latency — each request's time in the handler,
// and its time from when it was due — and a closed loop measures capacity;
// each runs in probeSegments parts with the host probe timed after every
// part. Peak RSS is read between the two: the warm-up and the open loop
// serve a fixed number of requests, so the unique compiles that stay in the
// artifact store, and with them the memory, do not depend on the host's
// speed as the closed loop's do.
const (
	serveClients  = 2
	serveSessions = 2 // per client
	// openLoopRate is the fixed open-loop offered load in requests/s, about
	// a sixth of the closed-loop capacity (5-7k requests/s) on the shared
	// 2-CPU host the benchmark was calibrated on. Each client has one
	// connection and so one request in flight: at 2000/s each connection
	// was busy 40% of the time, and when the host slowed down, requests
	// queued behind each other and the open-loop median tripled. It is
	// never adapted at run time.
	openLoopRate = 1000.0
	warmRequests = 4000                   // per client, untimed: promotions and the heap settle
	openShare    = 0.5                    // open loop: latency
	closedShare  = 0.5                    // closed loop: capacity
	window       = 100 * time.Millisecond // closed-loop rate window
	tailWindow   = 2 * time.Second        // open-loop tail window
	// compareRequests reads are timed alternately over HTTP and on the
	// reference engine after the measured phases.
	compareRequests = 2000
)

// compareClasses are the read classes whose reference form is the served
// input itself, so both sides do the same work.
var compareClasses = map[string]bool{"arith": true, "kernel": true, "gfib": true, "dot2": true, "table": true, "symbolic": true}

type evalReply struct {
	Value      string  `json:"value"`
	DurationMS float64 `json:"duration_ms"`
	Error      string  `json:"error"`
}

// served is one request's record, kept small so the benchmark's own
// memory stays out of peak_rss_mb: times are offsets from benchEpoch, the
// reply's value is kept as a hash, and the request itself is not kept —
// the check regenerates the client's stream from the seed.
type served struct {
	due, ready, sent, done time.Duration // due and ready only in the open loop
	op                     int64         // request id, the key of its handler time
	value                  uint64        // valueHash of the reply's value
	status                 int32
	class                  int8 // index of the request's class in serveMix; -1 for set-up
	open                   bool // sent by the open loop
	failed                 bool // transport or decode error, or a status other than 200
}

var benchEpoch = time.Now()

func since(t time.Time) time.Duration { return t.Sub(benchEpoch) }

func valueHash(v string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(v))
	return h.Sum64()
}

// latency is the request's time to reply. An open-loop request is timed
// from when it was due, so a stall counts against every request it
// delays — except that a request which fell due while the generator slept
// past its wake-up time is timed from the wake-up: the generator's own
// timer slack (about a millisecond on coarse-timer hosts) is not the
// server's, and gen.late_ms reports it instead.
func (s served) latency() time.Duration {
	if s.open {
		return s.done - s.ready
	}
	return s.done - s.sent
}

type serveClient struct {
	id       int
	tr       *http.Transport
	http     *http.Client
	gen      *serveGen
	sessions []string
	log      []served
	ops      int64
	errors   int
}

type serveRig struct {
	store   *artifact.Store // the artifact store installed before set-up, put back on close
	srv     *serve.Server
	timer   *timedHandler
	hs      *http.Server
	done    chan struct{}
	base    string
	clients []*serveClient
	rec     *recorder
}

func setupServe(seed int64, rec *recorder) (*serveRig, error) {
	core.ResetCompileCache()
	prev := core.SetArtifactStore(artifact.OpenMemory())
	srv := serve.NewServer(serve.Options{
		Tiering: true,
		Tier:    core.TierPolicy{Threshold: 50, Workers: 1},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		core.SetArtifactStore(prev)
		return nil, err
	}
	timer := &timedHandler{next: srv.Handler(), dur: map[int64]time.Duration{}}
	var h http.Handler = timer
	if rec != nil {
		h = &tracedHandler{next: h, rec: rec}
	}
	rig := &serveRig{store: prev, srv: srv, timer: timer, hs: &http.Server{Handler: h}, done: make(chan struct{}),
		base: "http://" + ln.Addr().String()}
	go func() {
		defer close(rig.done)
		rig.hs.Serve(ln)
	}()
	for c := 0; c < serveClients; c++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		cl := &serveClient{id: c, tr: tr, http: &http.Client{Transport: tr}, gen: newServeGen(seed, c, serveSessions)}
		rig.clients = append(rig.clients, cl)
		for s := 0; s < serveSessions; s++ {
			id, err := rig.createSession(cl)
			if err != nil {
				rig.close()
				return nil, err
			}
			cl.sessions = append(cl.sessions, id)
			r := rig.send(cl, cl.gen.setup(s), time.Time{})
			if r.failed || r.value != valueHash("0") {
				rig.close()
				return nil, fmt.Errorf("session set-up: status %d", r.status)
			}
		}
	}
	rig.rec = rec // set-up requests are not traced
	return rig, nil
}

func (rig *serveRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rig.hs.Shutdown(ctx)
	<-rig.done
	rig.srv.Close()
	for _, cl := range rig.clients {
		cl.tr.CloseIdleConnections()
	}
	core.SetArtifactStore(rig.store)
}

func (rig *serveRig) createSession(cl *serveClient) (string, error) {
	resp, err := cl.http.Post(rig.base+"/v1/sessions", "application/json", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var body struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("create session: status %d: %v", resp.StatusCode, err)
	}
	return body.ID, nil
}

// send posts one eval request and records its reply. due is zero for
// closed-loop and set-up requests. The first few failures are printed.
func (rig *serveRig) send(cl *serveClient, req request, due time.Time) served {
	cl.ops++
	op := int64(cl.id)<<32 | cl.ops
	body, _ := json.Marshal(map[string]any{"input": req.Input, "timeout_ms": 30000})
	hreq, err := http.NewRequest(http.MethodPost, rig.base+"/v1/sessions/"+cl.sessions[req.Session]+"/eval", bytes.NewReader(body))
	if err != nil {
		return served{class: classIndex[req.Class], failed: true}
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Bench-Op", strconv.FormatInt(op, 10))
	var rid int64
	if rig.rec != nil {
		rid = rig.rec.newID()
		hreq.Header.Set("X-Bench-Span", strconv.FormatInt(rid, 10))
		hreq.Header.Set("X-Bench-Kind", kindTag(req.Write))
	}
	sent := time.Now()
	s := served{op: op, class: classIndex[req.Class], open: !due.IsZero(), due: since(due), sent: since(sent)}
	resp, err := cl.http.Do(hreq)
	if err == nil {
		var rep evalReply
		err = json.NewDecoder(resp.Body).Decode(&rep)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		s.status, s.value = int32(resp.StatusCode), valueHash(rep.Value)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, rep.Error)
		}
	}
	done := time.Now()
	s.done = since(done)
	if err != nil {
		s.failed = true
		if cl.errors++; cl.errors <= 5 {
			fmt.Printf("request %q: %v\n", req.Input, err)
		}
	}
	if rig.rec != nil {
		rig.rec.add(span{ID: rid, Op: op, Name: "request", Tag: kindTag(req.Write), Start: rig.rec.at(sent), End: rig.rec.at(done)})
		t0 := rig.rec.now()
		parser.ParseAll(req.Input)
		rig.rec.add(span{Op: op, Name: "parser.parse", Start: t0, End: rig.rec.now()})
	}
	return s
}

func kindTag(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// warmUp sends n back-to-back requests from every client.
func (rig *serveRig) warmUp(n int) {
	var wg sync.WaitGroup
	for _, cl := range rig.clients {
		wg.Add(1)
		go func(cl *serveClient) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				cl.log = append(cl.log, rig.send(cl, cl.gen.next(), time.Time{}))
			}
		}(cl)
	}
	wg.Wait()
}

// closedLoop sends back-to-back requests from every client for d and
// returns the completion rate in each fixed window.
func (rig *serveRig) closedLoop(d time.Duration) []float64 {
	start := time.Now()
	deadline := start.Add(d)
	first := make([]int, len(rig.clients))
	var wg sync.WaitGroup
	for c, cl := range rig.clients {
		first[c] = len(cl.log)
		wg.Add(1)
		go func(cl *serveClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				cl.log = append(cl.log, rig.send(cl, cl.gen.next(), time.Time{}))
			}
		}(cl)
	}
	wg.Wait()
	counts := make([]float64, max(int(d/window), 1))
	for c, cl := range rig.clients {
		for _, s := range cl.log[first[c]:] {
			if i := int((s.done - since(start)) / window); i < len(counts) {
				counts[i]++
			}
		}
	}
	for i := range counts {
		counts[i] /= window.Seconds()
	}
	return counts
}

// openLoop sends every client's requests on a fixed schedule (rate/clients
// each, clients offset by half an interval) until deadline. A client that
// falls behind sends immediately; see served.latency for how requests
// are timed.
func (rig *serveRig) openLoop(d time.Duration) {
	interval := time.Duration(float64(time.Second) * serveClients / openLoopRate)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, cl := range rig.clients {
		wg.Add(1)
		go func(cl *serveClient) {
			defer wg.Done()
			offset := time.Duration(cl.id) * interval / serveClients
			var woke time.Time
			for k := 0; ; k++ {
				due := start.Add(offset + time.Duration(k)*interval)
				if due.After(deadline) {
					return
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					woke = time.Now()
				}
				s := rig.send(cl, cl.gen.next(), due)
				s.ready = since(due)
				if woke.After(due) {
					s.ready = since(woke)
				}
				cl.log = append(cl.log, s)
			}
		}(cl)
	}
	wg.Wait()
}

// scrape reads the server's own /metrics.
func (rig *serveRig) scrape() (map[string]float64, error) {
	resp, err := rig.clients[0].http.Get(rig.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, sc.Err()
}

// reference evaluates the Ref forms on a plain engine (tiering off, no
// compiled path), memoised by input.
type reference struct {
	eng  *engine.Engine
	memo map[string]refResult
}

type refResult struct {
	value string
	err   error
}

func newReference(id, defs string) (*reference, error) {
	eng := engine.New(engine.Options{ID: id})
	if _, err := eng.Eval(defs, 0); err != nil {
		eng.Close()
		return nil, fmt.Errorf("reference definitions: %w", err)
	}
	return &reference{eng: eng, memo: map[string]refResult{}}, nil
}

func (r *reference) eval(in string) refResult {
	if res, ok := r.memo[in]; ok {
		return res
	}
	var res refResult
	out, err := r.eng.Eval(in, 0)
	if err == nil && out.Value != nil {
		res.value = expr.InputForm(out.Value)
	}
	res.err = err
	r.memo[in] = res
	return res
}

func runServe(cfg config) (outcome, error) {
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	res := outcome{endToEnd: metrics{}, layers: metrics{}}
	rig, setupS, err := timedSetup(cfg.setups, func() (*serveRig, error) { return setupServe(cfg.seed, rec) }, (*serveRig).close)
	if err != nil {
		return res, err
	}
	defer rig.close()
	res.attempted += serveClients * serveSessions // set-up evals, checked in setupServe
	res.endToEnd.set("setup_s", setupS, "s")

	before, err := rig.scrape()
	if err != nil {
		return res, err
	}
	var ms0, ms1 gort.MemStats
	gort.ReadMemStats(&ms0)
	share := func(f float64) time.Duration { return time.Duration(float64(cfg.duration) * f) }
	rig.warmUp(warmRequests)
	var probe hostProbe
	probe.run(probeBurst)
	for i := 0; i < probeSegments; i++ {
		rig.openLoop(share(openShare) / probeSegments)
		probe.run(probeBurst)
	}
	res.endToEnd.set("peak_rss_mb", peakRSSMB(), "MB")
	var rates []float64
	for i := 0; i < probeSegments; i++ {
		rates = append(rates, rig.closedLoop(share(closedShare)/probeSegments)...)
		probe.run(probeBurst)
	}
	capacity := median(rates)
	gort.ReadMemStats(&ms1)
	after, err := rig.scrape()
	if err != nil {
		return res, err
	}

	ref, err := newReference("reference", refStatic())
	if err != nil {
		return res, err
	}
	defer ref.eng.Close()
	var all, handler, kernel, late []float64
	byClass := make([][]float64, len(serveMix))
	var secs []openSample
	var rejected, requests float64
	for _, cl := range rig.clients {
		gen := newServeGen(cfg.seed, cl.id, serveSessions)
		for _, s := range cl.log {
			req := gen.next()
			requests++
			res.attempted++
			want := ref.eval(req.Ref)
			if s.status == http.StatusTooManyRequests {
				rejected++
			}
			if s.failed || want.err != nil || s.value != valueHash(want.value) {
				res.failed++
				if res.failed <= 5 {
					fmt.Printf("mismatch: %s %q: status %d, want %q (%v)\n",
						req.Class, req.Input, s.status, want.value, want.err)
				}
			}
			if !s.open {
				continue
			}
			lat := ms(s.latency())
			all = append(all, lat)
			hd := rig.timer.get(s.op)
			handler = append(handler, ms(hd))
			secs = append(secs, openSample{s.due, lat})
			late = append(late, ms(s.sent-s.due))
			byClass[s.class] = append(byClass[s.class], lat)
			if serveMix[s.class].class == "kernel" {
				kernel = append(kernel, us(hd))
			}
		}
	}
	// write_ms is the geometric mean of the write classes' medians, so
	// each class moves it — a cold compile as much as a redefinition —
	// however few requests it has.
	var writeMedians []float64
	writes := 0
	for i, m := range serveMix {
		if m.write {
			if len(byClass[i]) == 0 {
				return res, fmt.Errorf("open loop sent no %s request", m.class)
			}
			writeMedians = append(writeMedians, median(byClass[i]))
			writes += len(byClass[i])
		}
	}
	if len(kernel) == 0 {
		return res, fmt.Errorf("open loop sent no kernel call")
	}
	e := res.endToEnd
	e.set("ops_per_s", capacity, "1/s")
	e.set("p50_ms", median(handler), "ms")
	e.set("write_ms", geomean(writeMedians), "ms")
	e.set("hot_us", median(kernel), "us")
	vsRef, n, bad := rig.compare(cfg.seed, ref, compareRequests)
	res.attempted += n
	res.failed += bad
	e.set("vs_ref", vsRef, "x")
	normalise(e, res.layers, &probe)
	fmt.Printf("serve: closed loop %.0f req/s; open loop %.0f req/s offered, %d requests, %d writes, median %.4f ms from due, %.4f ms in the handler\n",
		capacity, openLoopRate, len(all), writes, median(all), median(handler))
	fmt.Print("serve: open-loop median by class (ms):")
	for i, m := range serveMix {
		fmt.Printf(" %s %.3f", m.class, median(byClass[i]))
	}
	fmt.Println()

	if rec != nil {
		st := newSpanStats(rec.snapshot())
		l := res.layers
		l.set("transport.rtt_us", st.medianDurUS("request", ""), "us")
		l.set("transport.self_us", st.medianSelfUS("request", ""), "us")
		l.set("serve.handler_us", st.medianDurUS("serve.handler", ""), "us")
		l.set("serve.self_us", st.medianSelfUS("serve.handler", ""), "us")
		l.set("engine.eval_read_us", st.medianDurUS("engine.eval", "read"), "us")
		l.set("engine.eval_write_us", st.medianDurUS("engine.eval", "write"), "us")
		l.set("parser.parse_us", st.medianDurUS("parser.parse", ""), "us")
		l.set("serve.rejected", rejected, "count")
		l.set("gen.late_ms", quantile(late, 0.99), "ms")
		l.set("serve.p99_ms", windowedTail(secs), "ms")
		l.set("serve.due_p50_ms", median(all), "ms")
		l.set("serve.closed_qps", capacity, "1/s")
		delta := func(k string) float64 { return after[k] - before[k] }
		l.set("core.cache_hit_ratio", ratio(delta("wolfc_compile_cache_hits_total"), delta("wolfc_compile_cache_misses_total")), "ratio")
		l.set("artifact.hit_ratio", ratio(delta("wolfc_artifact_store_hits_total"), delta("wolfc_artifact_store_misses_total")), "ratio")
		perK := 1000 / requests
		l.set("tier.compiled_calls", delta("wolfc_tier_compiled_calls_total")*perK, "1/kreq")
		l.set("tier.guard_misses", delta("wolfc_tier_guard_misses_total")*perK, "1/kreq")
		l.set("tier.retires", delta("wolfc_tier_retires_total")*perK, "1/kreq")
		l.set("runtime.alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/requests, "kB")
		l.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC-probe.collections)*perK, "1/kreq")
		if err := rec.write(cfg.spansOut); err != nil {
			return res, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

// compare sends n reads of the static classes from a generator of its own,
// alternately to the server (one client, closed loop) and to the reference
// engine, and returns the geometric mean of the per-request time ratios —
// the cost of serving a request over interpreting its input, taken under
// the same conditions — with the number of requests and of disagreements.
func (rig *serveRig) compare(seed int64, ref *reference, n int) (ratio float64, attempted, failed int) {
	g := newServeGen(seed, serveClients, 1)
	cl := rig.clients[0]
	var served, interp []float64
	for len(served) < n {
		req := g.next()
		if !compareClasses[req.Class] {
			continue
		}
		s := rig.send(cl, req, time.Time{})
		t0 := time.Now()
		out, err := ref.eng.Eval(req.Ref, 0)
		interp = append(interp, us(time.Since(t0)))
		served = append(served, us(s.done-s.sent))
		if s.failed || err != nil || out.Value == nil || s.value != valueHash(expr.InputForm(out.Value)) {
			failed++
		}
	}
	return pairedRatio(served, interp, n), n, failed
}

// openSample is an open-loop request's due time and latency (ms, timed
// from due; see served.latency).
type openSample struct {
	due     time.Duration
	latency float64
}

// windowedTail is the median over the open loop's tailWindow windows (by
// due time) of each window's p99 latency. Each window holds about 2000
// requests, so its p99 has about 20 beyond it, and a stall cluster in one
// window moves one sample, not the whole run's tail.
func windowedTail(samples []openSample) float64 {
	if len(samples) == 0 {
		return 0
	}
	start := samples[0].due
	for _, s := range samples {
		start = min(start, s.due)
	}
	byWindow := map[int][]float64{}
	for _, s := range samples {
		i := int((s.due - start) / tailWindow)
		byWindow[i] = append(byWindow[i], s.latency)
	}
	var tails []float64
	for _, xs := range byWindow {
		if len(xs) >= 100 {
			tails = append(tails, quantile(xs, 0.99))
		}
	}
	return median(tails)
}

func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// timedHandler is the benchmark's thin wrapper around Handler().ServeHTTP
// in every run: it keeps each request's time in the handler, from the
// call to its return, under the request's X-Bench-Op id. That time leaves
// out the loopback transport and the wake-ups of idle threads and CPUs
// around it, which on a shared virtual host vary with the host's load.
type timedHandler struct {
	next http.Handler
	mu   sync.Mutex
	dur  map[int64]time.Duration
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(start)
	if op, err := strconv.ParseInt(r.Header.Get("X-Bench-Op"), 10, 64); err == nil {
		h.mu.Lock()
		h.dur[op] = d
		h.mu.Unlock()
	}
}

func (h *timedHandler) get(op int64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dur[op]
}

// tracedHandler is the benchmark's wrapper around Handler().ServeHTTP: it
// records a serve.handler span per eval request and, from the reply's
// duration_ms, an engine.eval child span.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
	if parent == 0 {
		h.next.ServeHTTP(w, r)
		return
	}
	op, _ := strconv.ParseInt(r.Header.Get("X-Bench-Op"), 10, 64)
	cw := &captureWriter{ResponseWriter: w}
	start := h.rec.now()
	h.next.ServeHTTP(cw, r)
	end := h.rec.now()
	id := h.rec.add(span{Parent: parent, Op: op, Name: "serve.handler", Start: start, End: end})
	var body struct {
		DurationMS float64 `json:"duration_ms"`
	}
	if json.Unmarshal(cw.buf.Bytes(), &body) == nil && body.DurationMS > 0 {
		h.rec.add(span{Parent: id, Op: op, Name: "engine.eval", Tag: r.Header.Get("X-Bench-Kind"),
			Start: start, End: start + int64(body.DurationMS*1e6)})
	}
}

// captureWriter copies the reply body while passing it through.
type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.buf.Write(p)
	return c.ResponseWriter.Write(p)
}
