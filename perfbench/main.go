// Command perfbench is the repository's end-to-end benchmark. It drives the
// public entry points of the stack from outside the program — wolfserve's
// HTTP handler over loopback TCP, engine.Eval with tiering on, and the
// compiler and compiled-call boundary on the Figure 2 kernels — and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// run records spans around each call into a layer and prints the
// per-layer set instead. See README.md for the workloads and the
// layer → end-to-end map.
//
//	go build -o perfbench . && ./perfbench --workload serve --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	gort "runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

// merge copies every entry of o into m.
func (m metrics) merge(o metrics) {
	for k, v := range o {
		m[k] = v
	}
}

// outcome is what one workload run produces.
type outcome struct {
	attempted, failed int
	endToEnd          metrics // untraced runs
	layers            metrics // traced runs
}

func (o *outcome) add(other outcome) {
	o.attempted += other.attempted
	o.failed += other.failed
	if o.endToEnd == nil {
		o.endToEnd = metrics{}
	}
	if o.layers == nil {
		o.layers = metrics{}
	}
	o.endToEnd.merge(other.endToEnd)
	o.layers.merge(other.layers)
}

// config is one run's settings.
type config struct {
	seed     int64
	duration time.Duration
	traced   bool
	setups   int    // set-up repetitions; setup_s is their median
	spansOut string // file the traced run's spans are written to ("" = none)
}

// workload runs one traffic mix for cfg.duration.
type workload func(cfg config) (outcome, error)

var workloads = map[string]workload{
	"serve":   runServe,
	"promote": runPromote,
	"kernels": runKernels,
}

// workloadOrder fixes the order in which a traced run visits the other
// workloads.
var workloadOrder = []string{"serve", "promote", "kernels"}

func main() {
	name := flag.String("workload", "", "workload to run: serve, promote or kernels")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured time of the run, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	commit := flag.String("commit", "unknown", "commit of the program under test, recorded with the host facts")
	spansDir := flag.String("spans-dir", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload serve|promote|kernels, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	host := hostFacts(*name, *seed, *commit, *trace == 1)
	hj, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hj)
	if gort.GOMAXPROCS(0) == 1 {
		fmt.Println("note: single-core run (GOMAXPROCS=1); parallel effects are not observable")
	}

	cfg := config{seed: *seed, duration: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, setups: 5}
	var res outcome
	var err error
	steal0, ticks0 := cpuTicks()
	if cfg.traced {
		res, err = tracedRun(*name, cfg, *spansDir)
	} else {
		res, err = run(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if steal1, ticks1 := cpuTicks(); ticks1 > ticks0 {
		fmt.Printf("host steal %.2f%%\n", 100*(steal1-steal0)/(ticks1-ticks0))
	}
	out := res.endToEnd
	if cfg.traced {
		out = res.layers
	}
	if err := checkFinite(out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	printTable(out)
	fmt.Printf("%-28s %14d\n", "attempted", res.attempted)
	fmt.Printf("%-28s %14d\n", "failed", res.failed)
	fmt.Printf("%-28s %14.6f\n", "fail_frac", float64(res.failed)/float64(max(res.attempted, 1)))
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// tracedRun is the --trace 1 run. The named workload runs traced for the
// full duration, then untraced for half of it so the tracing overhead can
// be reported; the other two workloads run traced for a quarter each, so
// every traced run prints the whole per-layer table.
func tracedRun(name string, cfg config, spansDir string) (outcome, error) {
	cfg.setups = 1
	var res outcome
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return res, fmt.Errorf("spans dir: %w", err)
	}
	main := cfg
	main.spansOut = filepath.Join(spansDir, "spans-"+name+".json")
	traced, err := workloads[name](main)
	if err != nil {
		return res, err
	}
	res.add(traced)

	plain := cfg
	plain.traced = false
	plain.duration = cfg.duration / 2
	untraced, err := workloads[name](plain)
	if err != nil {
		return res, err
	}
	res.attempted += untraced.attempted
	res.failed += untraced.failed
	t, u := traced.endToEnd["p50_ms"].Value, untraced.endToEnd["p50_ms"].Value
	if u > 0 {
		res.layers.set("trace.overhead_pct", (t/u-1)*100, "%")
	}

	for _, other := range workloadOrder {
		if other == name {
			continue
		}
		side := cfg
		side.duration = max(cfg.duration/4, 2*time.Second)
		side.spansOut = filepath.Join(spansDir, "spans-"+other+".json")
		o, err := workloads[other](side)
		if err != nil {
			return res, fmt.Errorf("%s: %w", other, err)
		}
		res.add(o)
	}
	// The probe time reported is the named workload's.
	res.layers["host.probe_us"] = traced.layers["host.probe_us"]
	return res, nil
}

// hostFacts are recorded in every result.
func hostFacts(workload string, seed int64, commit string, traced bool) map[string]any {
	return map[string]any{
		"workload":    workload,
		"seed":        seed,
		"traced":      traced,
		"gomaxprocs":  gort.GOMAXPROCS(0),
		"numcpu":      gort.NumCPU(),
		"go":          gort.Version(),
		"goos":        gort.GOOS + "/" + gort.GOARCH,
		"commit":      commit,
		"single_core": gort.GOMAXPROCS(0) == 1,
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
// Workloads read it when their measured phase ends, before the output
// checks, so the reference engines and logs of the check do not count.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTicks reads the machine's cumulative CPU time from /proc/stat: the
// steal column (time a hypervisor ran something else on this machine's
// virtual CPUs) and the sum of the columns from user through steal; zeros
// where it cannot be read. Steal slows the wall-clock metrics of a run, so
// each run reports its share.
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest columns
	// after them are already counted in user and nice.
	for i, x := range f[1:9] {
		v, _ := strconv.ParseFloat(x, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// probeRefUS is the host-probe time the end-to-end times are scaled to.
// A shared host runs the same code faster or slower from one minute to the
// next, and a process can run slower than the one before it on the same
// host; the host probe (probe.go), timed between the measurements of the
// run, slows down with them. Each run scales its times by probeRefUS over
// its median probe time, so they read as on a host where the probe takes
// probeRefUS, and prints the raw values beside them.
const probeRefUS = 1000.0

// scaledTimes are the end-to-end times normalise scales; ops_per_s, a
// rate, is scaled the other way. vs_ref, a ratio of times taken
// alternately, and peak_rss_mb are left as they are.
var scaledTimes = []string{"setup_s", "p50_ms", "write_ms", "hot_us"}

// normalise prints the run's raw end-to-end times and scales those of them
// that are set to the reference probe time; it reports the probe's median
// as host.probe_us.
func normalise(e, layers metrics, p *hostProbe) {
	pm := p.median()
	f := probeRefUS / pm
	fmt.Printf("raw host.probe_us %.2f", pm)
	for _, k := range scaledTimes {
		if m, ok := e[k]; ok {
			fmt.Printf(", %s %.6g", k, m.Value)
			e.set(k, m.Value*f, m.Unit)
		}
	}
	if m, ok := e["ops_per_s"]; ok {
		fmt.Printf(", ops_per_s %.6g", m.Value)
		e.set("ops_per_s", m.Value/f, m.Unit)
	}
	fmt.Println()
	layers.set("host.probe_us", pm, "us")
}

func checkFinite(m metrics) error {
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not a number (%v)", k, v.Value)
		}
	}
	return nil
}

func printTable(m metrics) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// --- statistics ---

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics); 0 for an empty sample. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timedSetup runs setup n times and returns the last result with the
// median set-up time in seconds. Earlier results are released with drop
// and collected, so the measured phase starts from the same heap whatever
// n is.
func timedSetup[T any](n int, setup func() (T, error), drop func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < max(n, 1); i++ {
		if i > 0 {
			drop(last)
			gort.GC()
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}
