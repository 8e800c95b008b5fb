// Command perfbench is the repository's benchmark. It assembles the
// in-process DLHub testbed (internal/bench.Testbed), drives one named
// workload through the public entry points — the dlhub SDK over
// loopback HTTP, or direct core.Service calls — checks every output,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// breakdown) followed by one JSON result line.
//
//	go build -o perfbench . && ./perfbench -workload hot-run -seed 1 -seconds 10 -trace 0
//
// GLOSSARY.md defines every metric and why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
)

// workload is one named traffic mix.
type workload struct {
	name string
	// setups is how many times set-up is timed; setup_s is the median.
	setups int
	// limit is the latency limit goodput_rps counts against, set near
	// the workload's p90–p97 so that goodput shows the tail without
	// resting on the few samples of a high percentile.
	limit time.Duration
	// start assembles a fresh testbed for the workload, up to and
	// including the priming request.
	start func(e *env) (rig, error)
}

var workloads = map[string]*workload{
	"hot-run":     {name: "hot-run", setups: 15, limit: time.Millisecond, start: startHotRun},
	"science-mix": {name: "science-mix", setups: 3, limit: scienceLimit, start: startScienceMix},
	"repo-churn":  {name: "repo-churn", setups: 9, limit: time.Millisecond, start: startRepoChurn},
}

// env is what the phases of one invocation share.
type env struct {
	seed    int64
	seconds time.Duration
	workdir string
	nproc   int
	// setupN numbers set-ups, so each gets its own data directory.
	setupN int
}

// dir returns a fresh directory under the work directory.
func (e *env) dir(name string) (string, error) {
	e.setupN++
	d := filepath.Join(e.workdir, fmt.Sprintf("%s-%d", name, e.setupN))
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// rig is an assembled, primed workload.
type rig interface {
	// window runs the measured load for d, tracing when tr != nil.
	window(d time.Duration, tr *tracer) (windowResult, error)
	// probe runs the workload's direct repository and auth probes
	// into m.
	probe(e *env, m metrics) error
	// finish runs the end-of-run checks, which may restart the service,
	// and returns how long a restart's recovery took (0 without a
	// durable store).
	finish() (recoverMS float64, err error)
	// service is the workload's current Management Service.
	service() *core.Service
	close()
}

// windowResult is what a measured window produced.
type windowResult struct {
	samples []sample
	// measured is how many leading samples are the operations of the
	// measured window (science-mix's repository operations follow
	// them). span runs from the window's start to its
	// last completion; it divides the completed operations and the runs
	// within the latency limit into throughput_rps and goodput_rps.
	measured int
	span     time.Duration
	// closed marks a closed-loop window, whose run metrics are the
	// median over time slices (see sliced).
	closed bool
	// late is how late each open-loop send ran (nil for closed loops).
	late []time.Duration
	// wrong counts operations whose output failed its check; firstWrong
	// describes the first.
	wrong      int
	firstWrong string
	// sampled holds the gauges sampled during the window.
	sampled gauges
}

// metrics are named values with units.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the final JSON line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: hot-run, science-mix or repo-churn")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "directory for scratch data and span files")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload hot-run|science-mix|repo-churn, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, workdir: *workdir, nproc: runtime.NumCPU()}
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(e.workdir) //nolint:errcheck // scratch only

	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, e, filepath.Join(filepath.Dir(e.workdir), "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, e.seed)))
	} else {
		res, err = runPlain(w, e)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setUp assembles the workload w.setups times, tearing down all but the
// last, and returns the last rig with the median set-up time.
func setUp(w *workload, e *env, times int) (rig, float64, error) {
	var durs []float64
	var r rig
	for i := 0; i < times; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		r, err = w.start(e)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	return r, median(durs), nil
}

// bounded lists the end-to-end metrics of the result line, the ones
// BENCHMARK.json bounds. The table also prints run_p95_ms, run_p99_ms
// and write_p99_ms, which science-mix's few hundred runs and the noise
// of microsecond writes leave too unsteady to bound on every workload
// (goodput_rps carries the tail instead), and error_rate, which is 0
// when the program is right.
var bounded = []string{"setup_s", "throughput_rps", "goodput_rps", "run_p50_ms", "write_p50_ms", "search_p50_ms", "heap_live_mb"}

// runPlain is the untraced run: the end-to-end metrics.
func runPlain(w *workload, e *env) (result, error) {
	r, setup, err := setUp(w, e, w.setups)
	if err != nil {
		return result{}, err
	}
	defer r.close()
	fmt.Printf("perfbench %s seed=%d seconds=%.0f nproc=%d setups=%d\n", w.name, e.seed, e.seconds.Seconds(), e.nproc, w.setups)

	wr, err := r.window(e.seconds, nil)
	if err != nil {
		return result{}, err
	}
	all := metrics{}
	all.set("setup_s", setup, "s")
	endToEnd(w, wr, all)
	notes, extra := sampleNotes(w, wr)
	attempted, failures := tally(wr.samples)
	// The benchmark's own records are not the program's heap.
	wr.samples = nil
	all.set("heap_live_mb", liveHeapMB(), "MiB")
	_, checkErr := r.finish()

	m := metrics{}
	for _, name := range bounded {
		m[name] = all[name]
	}
	res := finalize(attempted, failures, wr, m, checkErr)
	all.set("error_rate", float64(res.Failed)/float64(res.Attempted), "1")
	notes["error_rate"] = fmt.Sprintf("attempted=%d failed=%d", res.Attempted, res.Failed)
	fmt.Printf("%-16s %14s %-5s %s\n", "metric", "value", "unit", "samples")
	for _, name := range sortedNames(all) {
		v := all[name]
		fmt.Printf("%-16s %14.4f %-5s %s\n", name, v.Value, v.Unit, notes[name])
	}
	for _, line := range extra {
		fmt.Println(line)
	}
	return res, nil
}

// liveHeapMB is the live heap after forced GCs, in MiB: the least of
// readings taken back to back, each after a GC, for 1.5 s. The rpc frame
// pool keeps whatever buffers the background loops (heartbeats, long
// polls) touch between two GCs, and after science-mix those include
// buffers grown to batch size; with GCs 20 ms apart they linger for
// seconds. Back-to-back GCs empty the pool between two background
// calls; on a 2-vCPU machine the reading reached the floor within
// about 0.8 s.
func liveHeapMB() float64 {
	least := math.Inf(1)
	for start := time.Now(); time.Since(start) < 1500*time.Millisecond; {
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		least = min(least, float64(mem.HeapAlloc)/(1<<20))
	}
	return least
}

// endToEnd fills the end-to-end metrics of a window.
func endToEnd(w *workload, wr windowResult, m metrics) {
	ops := wr.samples[:wr.measured]
	over := func(f func([]sample, time.Duration) float64) float64 {
		if wr.closed {
			return sliced(ops, wr.span, f)
		}
		return f(ops, wr.span)
	}
	runPct := func(q float64) func([]sample, time.Duration) float64 {
		return func(ss []sample, _ time.Duration) float64 { return ms(percentile(latencies(ss, opRun), q)) }
	}
	m.set("throughput_rps", over(func(ss []sample, d time.Duration) float64 { return float64(completed(ss)) / d.Seconds() }), "1/s")
	m.set("goodput_rps", over(func(ss []sample, d time.Duration) float64 { return goodput(ss, opRun, w.limit, d) }), "1/s")
	m.set("run_p50_ms", over(runPct(0.50)), "ms")
	m.set("run_p95_ms", over(runPct(0.95)), "ms")
	m.set("run_p99_ms", over(runPct(0.99)), "ms")
	repo := func(kind opKind, q float64) float64 {
		f := func(ss []sample, _ time.Duration) float64 { return ms(percentile(latencies(ss, kind), q)) }
		if !wr.closed {
			return f(wr.samples, 0)
		}
		return sliced(wr.samples, wr.span, f)
	}
	m.set("write_p50_ms", repo(opWrite, 0.50), "ms")
	m.set("write_p99_ms", repo(opWrite, 0.99), "ms")
	m.set("search_p50_ms", repo(opSearch, 0.50), "ms")
}

// sampleNotes describes each end-to-end metric's samples — the count
// and how many lie beyond the percentile — and returns extra lines:
// science-mix's latencies per request type and the open-loop
// generator's lateness.
func sampleNotes(w *workload, wr windowResult) (map[string]string, []string) {
	count := func(k opKind) int { return len(latencies(wr.samples, k)) }
	runs, writes, searches := count(opRun), count(opWrite), count(opSearch)
	how := "over the window"
	if wr.closed {
		// Per slice the counts are about a tenth of these.
		how = fmt.Sprintf("median of %d slices", sliceCount)
	}
	notes := map[string]string{
		"setup_s":        fmt.Sprintf("median of %d set-ups", w.setups),
		"throughput_rps": fmt.Sprintf("n=%d ops over %.2fs, %s", completed(wr.samples[:wr.measured]), wr.span.Seconds(), how),
		"goodput_rps":    fmt.Sprintf("runs within %v, n=%d, %s", w.limit, runs, how),
		"run_p50_ms":     fmt.Sprintf("n=%d beyond=%d, %s", runs, beyond(runs, 0.50), how),
		"run_p95_ms":     fmt.Sprintf("n=%d beyond=%d, %s", runs, beyond(runs, 0.95), how),
		"run_p99_ms":     fmt.Sprintf("n=%d beyond=%d, %s", runs, beyond(runs, 0.99), how),
		"write_p50_ms":   fmt.Sprintf("n=%d beyond=%d, %s", writes, beyond(writes, 0.50), how),
		"write_p99_ms":   fmt.Sprintf("n=%d beyond=%d, %s", writes, beyond(writes, 0.99), how),
		"search_p50_ms":  fmt.Sprintf("n=%d beyond=%d, %s", searches, beyond(searches, 0.50), how),
		"heap_live_mb":   "after a forced GC",
	}
	var extra []string
	if w.name == "science-mix" {
		for typ, kind := range scienceKinds {
			var of []sample
			for _, s := range wr.samples {
				if s.kind == opRun && s.typ == typ {
					of = append(of, s)
				}
			}
			l := latencies(of, opRun)
			extra = append(extra, fmt.Sprintf("  %-14s p50=%.2fms p95=%.2fms p99=%.2fms n=%d",
				kind, ms(percentile(l, 0.5)), ms(percentile(l, 0.95)), ms(percentile(l, 0.99)), len(l)))
		}
	}
	if wr.late != nil {
		extra = append(extra, fmt.Sprintf("%-16s %14.4f %-5s max late send of the open-loop generator", "gen.late_ms.max", ms(maxDur(wr.late)), "ms"))
	}
	return notes, extra
}

// finalize builds the result line.
func finalize(attempted, failures int, wr windowResult, m metrics, checkErr error) result {
	correct := wr.wrong == 0 && checkErr == nil && attempted > 0
	if wr.wrong > 0 {
		fmt.Printf("CHECK FAILED: %d wrong outputs; first: %s\n", wr.wrong, wr.firstWrong)
	}
	if checkErr != nil {
		fmt.Printf("CHECK FAILED: %v\n", checkErr)
	}
	if attempted == 0 {
		attempted = 1 // the contract wants at least one; correct is false
		failures = 1
	}
	return result{Correct: correct, Attempted: attempted, Failed: failures, Metrics: m}
}

// runTraced is the traced run: the same workload untraced and then
// traced, the direct layer probes, and the per-layer metrics. Spans are
// written to spanPath.
func runTraced(w *workload, e *env, spanPath string) (result, error) {
	r, _, err := setUp(w, e, 1)
	if err != nil {
		return result{}, err
	}
	defer r.close()
	fmt.Printf("perfbench %s seed=%d seconds=%.0f nproc=%d traced\n", w.name, e.seed, e.seconds.Seconds(), e.nproc)
	m := metrics{}

	// A short warm-up first, so that the untraced and traced windows
	// both start from warm caches and their p50s compare.
	all, err := r.window(e.seconds/6, nil)
	if err != nil {
		return result{}, err
	}
	// Untraced window: counters, gauges and process metrics.
	before := readCounters(r.service())
	p0 := readProc()
	plain, err := r.window(e.seconds, nil)
	if err != nil {
		return result{}, err
	}
	p1 := readProc()
	after := readCounters(r.service())
	counterMetrics(before, after, m)
	plain.sampled.report(m)
	procMetrics(p0, p1, len(plain.samples), e.nproc, m)
	lateMetrics(plain.late, m)

	// Traced window: spans.
	tr := newTracer()
	traced, err := r.window(e.seconds, tr)
	if err != nil {
		return result{}, err
	}
	spanMetrics(tr, m)
	p50 := func(wr windowResult) float64 { return ms(percentile(latencies(wr.samples, opRun), 0.5)) }
	m.set("trace.overhead_pct", 100*(p50(traced)/p50(plain)-1), "%")

	for _, probe := range []func() error{
		func() error { return r.probe(e, m) },
		func() error { return probeModel(e.seed, m) },
		func() error { return probeMatsci(e.seed, m) },
		func() error { return probeEmulator(m) },
	} {
		if err := probe(); err != nil {
			return result{}, fmt.Errorf("probe: %w", err)
		}
	}
	recoverMS, checkErr := r.finish()
	m.set("store.recover_ms", recoverMS, "ms")
	if err := tr.write(spanPath); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}

	all.merge(plain)
	all.merge(traced)
	attempted, failures := tally(all.samples)
	res := finalize(attempted, failures, all, m, checkErr)
	printLayers(m, spanPath, len(tr.ops))
	return res, nil
}

// printLayers prints the per-layer table.
func printLayers(m metrics, spanPath string, ops int) {
	fmt.Printf("per-layer metrics (%d traced operations, spans in %s)\n", ops, spanPath)
	for _, name := range sortedNames(m) {
		v := m[name]
		fmt.Printf("  %-34s %14.4f %s\n", name, v.Value, v.Unit)
	}
}

func sortedNames(m metrics) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

// merge adds another window's samples and wrong outputs to wr.
func (wr *windowResult) merge(o windowResult) {
	wr.samples = append(wr.samples, o.samples...)
	if o.wrong > 0 {
		if wr.wrong == 0 {
			wr.firstWrong = o.firstWrong
		}
		wr.wrong += o.wrong
	}
}

// checkf records a wrong output in a window result.
func (wr *windowResult) checkf(format string, args ...any) {
	wr.wrong++
	if wr.wrong == 1 {
		wr.firstWrong = fmt.Sprintf(format, args...)
	}
}

// near compares two floats to a relative tolerance, taken relative to
// at least 1e-6 so values that should be zero may carry rounding noise.
func near(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-6)
}
