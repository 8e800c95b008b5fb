package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/matsci"
	"repro/internal/ml/nn"
	"repro/internal/ml/tensor"
	"repro/internal/netsim"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/servable"
	"repro/internal/simconst"
)

// This file holds the per-layer measurements: service counters and
// sampled gauges read through public accessors, process metrics, span
// summaries, and the direct probes that time one layer's public
// functions in isolation.

// counters are the service counters whose deltas over the untraced
// window become per-layer metrics.
type counters struct {
	cache    core.CacheStats
	rejected uint64
	redisp   uint64
}

func readCounters(s *core.Service) counters {
	c := counters{cache: s.CacheStats(), redisp: s.FailoverStats().Redispatched}
	for _, t := range s.TenantStatsAll() {
		c.rejected += t.RejectedQuota + t.RejectedOverload
	}
	return c
}

func counterMetrics(a, b counters, m metrics) {
	hits := float64(b.cache.Hits - a.cache.Hits)
	misses := float64(b.cache.Misses - a.cache.Misses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	m.set("cache.hit_ratio", ratio, "1")
	m.set("cache.hits", hits, "count")
	m.set("cache.misses", misses, "count")
	m.set("cache.collapsed", float64(b.cache.Collapsed-a.cache.Collapsed), "count")
	m.set("cache.evictions", float64(b.cache.Evictions-a.cache.Evictions), "count")
	m.set("cache.invalidations", float64(b.cache.Invalidations-a.cache.Invalidations), "count")
	m.set("admit.rejected", float64(b.rejected-a.rejected), "count")
	m.set("failover.redispatched", float64(b.redisp-a.redisp), "count")
}

// heartbeat is the Task Managers' heartbeat interval: TMActive reports
// what the last heartbeat carried.
const heartbeat = 100 * time.Millisecond

// gauges are the routing and queue gauges sampled during a window.
type gauges struct {
	depth, active, imbalance []float64
}

// sampleGauges samples the service's per-TM gauges every 5 ms until
// stop is closed, then sends what it saw on the returned channel.
func sampleGauges(s *core.Service, stop <-chan struct{}) <-chan gauges {
	out := make(chan gauges, 1)
	go func() {
		var g gauges
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- g
				return
			case <-tick.C:
			}
			g.depth = append(g.depth, float64(sum(s.TMQueueDepth())))
			g.active = append(g.active, float64(sum(s.TMActive())))
			load := s.TMLoad()
			if total := sum(load); total > 0 {
				peak := 0
				for _, v := range load {
					peak = max(peak, v)
				}
				g.imbalance = append(g.imbalance, float64(peak)*float64(len(load))/float64(total))
			}
		}
	}()
	return out
}

func sum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func (g gauges) report(m metrics) {
	m.set("queue.depth.p50", quantile(g.depth, 0.5), "count")
	m.set("queue.depth.max", maxOf(g.depth), "count")
	m.set("tm.active.p50", quantile(g.active, 0.5), "count")
	m.set("route.inflight_imbalance", mean(g.imbalance), "1")
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// procSnap is the process's CPU and allocation counters at one moment.
type procSnap struct {
	wall            time.Time
	cpu             time.Duration
	mallocs         uint64
	gcCPU, totalCPU float64
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(samples)
	return procSnap{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		gcCPU:    samples[0].Value.Float64(),
		totalCPU: samples[1].Value.Float64(),
	}
}

func procMetrics(a, b procSnap, ops, nproc int, m metrics) {
	wall := b.wall.Sub(a.wall)
	m.set("proc.cpu_util", float64(b.cpu-a.cpu)/float64(wall)/float64(nproc), "1")
	if ops == 0 {
		ops = 1
	}
	m.set("proc.allocs_per_op", float64(b.mallocs-a.mallocs)/float64(ops), "count")
	frac := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		frac = (b.gcCPU - a.gcCPU) / d
	}
	m.set("proc.gc_cpu_fraction", frac, "1")
}

// lateMetrics reports how late the open-loop generator sent (zero for
// closed loops, which have no schedule to fall behind).
func lateMetrics(late []time.Duration, m metrics) {
	xs := make([]float64, len(late))
	for i, d := range late {
		xs[i] = ms(d)
	}
	m.set("gen.late_ms.p99", quantile(xs, 0.99), "ms")
	m.set("gen.late_ms.max", maxOf(xs), "ms")
}

// spanMetrics summarizes the traced window's span trees. The self-time
// percentiles cover the single-input requests (runs and pipelines),
// whose reply durations nest one inside the other. A batch's
// inference_us sums its items, which run in parallel on the engines, so
// it is not a wall-clock span: batches are summarized on their own.
func spanMetrics(tr *tracer, m metrics) {
	vals := tr.layerValues("run", "pipeline")
	for _, l := range []string{"sdk.self_us", "http.self_us", "dispatch.self_us", "tm.self_us"} {
		m.set(l+".p50", quantile(vals[l], 0.5), "us")
		m.set(l+".p99", quantile(vals[l], 0.99), "us")
	}
	abs := make([]float64, len(vals["unattributed_us"]))
	for i, v := range vals["unattributed_us"] {
		abs[i] = max(v, -v)
	}
	m.set("unattributed_us.p99", quantile(abs, 0.99), "us")
	for _, kind := range []string{"run", "batch", "pipeline"} {
		m.set("servable.inference_us."+kind+".p50", quantile(tr.layerValues(kind)["servable.inference_us"], 0.5), "us")
	}
	m.set("pipeline.self_us.p50", quantile(vals["pipeline.self_us"], 0.5), "us")

	var steps [2][]float64
	for _, op := range tr.ops {
		n := 0
		for _, s := range op.Spans {
			if s.Name == "step" && n < len(steps) {
				steps[n] = append(steps[n], float64(s.End-s.Start)/1000)
				n++
			}
		}
	}
	for i, xs := range steps {
		m.set(fmt.Sprintf("pipeline.step_request_us.%d", i+1), quantile(xs, 0.5), "us")
	}
}

// timeN runs f n times and returns each call's duration in µs.
func timeN(n int, f func(i int) error) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		out[i] = us(time.Since(t0))
	}
	return out, nil
}

// modelSeed fixes the CIFAR-10 weights every workload serves.
const modelSeed = 7

// cifarImage generates one seeded 32×32×3 image with values in [0,1).
func cifarImage(key int64) []float64 {
	rng := rand.New(rand.NewSource(key))
	img := make([]float64, 32*32*3)
	for i := range img {
		img[i] = rng.Float64()
	}
	return img
}

func toFloat32(img []float64) []float32 {
	out := make([]float32, len(img))
	for i, v := range img {
		out[i] = float32(v)
	}
	return out
}

// top5 is the reference answer: a direct ml/nn forward pass, shaped the
// way the CIFAR-10 servable reports it.
func top5(model *nn.Model, img []float64) []nn.Prediction {
	return model.Predict(tensor.FromData(toFloat32(img), 32, 32, 3), 5)
}

// mflopPerCall counts the forward pass's floating-point operations from
// the layer shapes: two per multiply-add of every conv and dense layer
// (pooling, bias and activation are not counted).
func mflopPerCall(model *nn.Model) float64 {
	in := tensor.New(model.InputShape...)
	var flop float64
	for _, l := range model.Layers {
		out := l.Forward(in)
		switch v := l.(type) {
		case *nn.Conv:
			k := v.Kernel.Shape // [kh, kw, cin, cout]
			flop += 2 * float64(out.Shape[0]*out.Shape[1]) * float64(k[0]*k[1]*k[2]*k[3])
		case *nn.Dense:
			flop += 2 * float64(v.In*v.Out)
		}
		in = out
	}
	return flop / 1e6
}

// probeModel times direct CIFAR-10 forward passes and the same model
// hosted by the emulated Python runtime, on the workload's images.
func probeModel(seed int64, m metrics) error {
	model := nn.NewCIFAR10(modelSeed)
	imgs := make([][]float64, 64)
	for i := range imgs {
		imgs[i] = cifarImage(seed*1000 + int64(i))
	}
	fwd, _ := timeN(len(imgs), func(i int) error { top5(model, imgs[i]); return nil })
	m.set("nn.forward_us.p50", quantile(fwd, 0.5), "us")
	m.set("nn.mflop_per_call", mflopPerCall(model), "MFLOP")

	// pyruntime: the same model behind the emulated interpreter (fixed
	// per-call overhead plus the call factor), against native.
	pkg, err := servable.CIFAR10Package(modelSeed)
	if err != nil {
		return err
	}
	pkg.Doc.ID = "perfbench/pyruntime-probe"
	sv, err := servable.Load(pkg.Doc, pkg.Components, true)
	if err != nil {
		return err
	}
	defer sv.Close()
	hosted, err := timeN(len(imgs), func(i int) error { _, err := sv.Run(imgs[i]); return err })
	if err != nil {
		return err
	}
	native, err := timeN(len(imgs), func(i int) error { _, err := sv.RunNative(imgs[i]); return err })
	if err != nil {
		return err
	}
	m.set("pyruntime.slowdown", quantile(hosted, 0.5)/quantile(native, 0.5), "1")
	return nil
}

// formula generates one seeded chemical formula of two to four
// elements with small integer counts.
func formula(key int64) string {
	rng := rand.New(rand.NewSource(key))
	pool := []string{"Li", "Na", "K", "Mg", "Ca", "Sr", "Ba", "Ti", "Fe", "Co", "Ni", "Cu", "Zn", "Al", "Si", "O", "S", "N", "P", "Cl"}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	var b strings.Builder
	for _, el := range pool[:2+rng.Intn(3)] {
		b.WriteString(el)
		if n := rng.Intn(4); n > 0 {
			fmt.Fprintf(&b, "%d", n+1)
		}
	}
	return b.String()
}

// featurize is the pipeline's reference answer: direct matsci
// featurization of the formula.
func featurize(f string) ([]float64, error) {
	comp, err := matsci.ParseComposition(f)
	if err != nil {
		return nil, err
	}
	return matsci.Featurize(comp), nil
}

func probeMatsci(seed int64, m metrics) error {
	comps := make([]matsci.Composition, 200)
	for i := range comps {
		c, err := matsci.ParseComposition(formula(seed*1000 + int64(i)))
		if err != nil {
			return err
		}
		comps[i] = c
	}
	d, _ := timeN(len(comps), func(i int) error { matsci.Featurize(comps[i]); return nil })
	m.set("matsci.featurize_us.p50", quantile(d, 0.5), "us")
	return nil
}

// probeEmulator compares the delays the emulator injects with their
// nominal values at the paper's constants (the uncompressed scale, so
// the probe means the same on every workload): time.Sleep of the
// per-request simconst costs, and netsim round trips over the
// TM↔cluster and MS↔TM profiles.
func probeEmulator(m metrics) error {
	sleepRatio := func(d time.Duration, n int) float64 {
		xs, _ := timeN(n, func(int) error { time.Sleep(d); return nil })
		return quantile(xs, 0.5) / us(d)
	}
	m.set("emu.sleep_ratio.dispatch", sleepRatio(simconst.DispatchOverhead, 200), "1")
	m.set("emu.sleep_ratio.pycall", sleepRatio(simconst.PythonCallOverhead, 200), "1")

	cluster, err := netsimRTT(netsim.RTT(simconst.RTTTMToCluster, simconst.LinkBandwidth), 200)
	if err != nil {
		return err
	}
	m.set("emu.sleep_ratio.cluster_rtt", us(cluster)/us(simconst.RTTTMToCluster), "1")
	wan, err := netsimRTT(netsim.RTT(simconst.RTTManagementToTM, simconst.WANBandwidth), 20)
	if err != nil {
		return err
	}
	m.set("emu.wan_rtt_ms", ms(wan), "ms")
	return nil
}

// netsimRTT measures the median round trip of a 64-byte ping over a
// loopback TCP pair with both ends shaped by p, as the testbed shapes
// its links.
func netsimRTT(p netsim.Profile, n int) (time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			echoed <- err
			return
		}
		sc := netsim.Wrap(c, p)
		defer sc.Close()
		_, err = io.Copy(sc, sc)
		echoed <- err
	}()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return 0, err
	}
	c := netsim.Wrap(raw, p)
	buf := make([]byte, 64)
	rtts, err := timeN(n, func(int) error {
		if _, err := c.Write(buf); err != nil {
			return err
		}
		_, err := io.ReadFull(c, buf)
		return err
	})
	c.Close()
	if werr := <-echoed; err == nil && werr != nil && !isClosed(werr) {
		err = werr
	}
	if err != nil {
		return 0, err
	}
	return time.Duration(quantile(rtts, 0.5) * float64(time.Microsecond)), nil
}

func isClosed(err error) bool {
	return err == io.EOF || strings.Contains(err.Error(), "closed") || strings.Contains(err.Error(), "reset")
}

// probeRepo times direct metadata updates on the given servables
// through core.Service, each followed by a search for the token it
// wrote; the store's WAL growth per write; and the auth layer's token
// introspection with the workload's bearer.
func probeRepo(s *core.Service, owner core.Caller, ids []string, walDir, bearer string, seed int64, m metrics) error {
	const n = 1000
	walBefore := dirSize(walDir)
	var writes, queries []float64
	hits := 0
	for i := 0; i < n; i++ {
		id, tok := ids[i%len(ids)], revToken("probe", seed, int64(i))
		t0 := time.Now()
		if err := s.UpdateMetadata(owner, id, func(p *schema.Publication) { p.Description = "probe revision " + tok }); err != nil {
			return err
		}
		t1 := time.Now()
		res, err := s.Search(context.Background(), owner, search.Query{Must: []search.Clause{{FreeText: tok}}, Limit: 10})
		if err != nil {
			return err
		}
		writes = append(writes, us(t1.Sub(t0)))
		queries = append(queries, us(time.Since(t1)))
		hits += len(res.Hits)
	}
	m.set("store.write_us.p50", quantile(writes, 0.5), "us")
	m.set("store.write_us.p99", quantile(writes, 0.99), "us")
	m.set("store.wal_bytes_per_write", float64(dirSize(walDir)-walBefore)/n, "B")
	m.set("search.query_us.p50", quantile(queries, 0.5), "us")
	m.set("search.hits_per_query", float64(hits)/n, "count")

	a, err := timeN(2000, func(int) error { _, err := s.ResolveCaller(bearer); return err })
	if err != nil {
		return err
	}
	m.set("auth.resolve_us.p50", quantile(a, 0.5), "us")
	return nil
}

// revToken is the unique search token a metadata revision carries: a
// single word, as the index tokenizes on anything but letters and
// digits.
func revToken(kind string, seed, n int64) string {
	return fmt.Sprintf("%s%dz%d", kind, uint64(seed), n)
}

// dirSize sums the sizes of the regular files under dir (0 for "").
func dirSize(dir string) int64 {
	if dir == "" {
		return 0
	}
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error { // unreadable entries count as empty
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
