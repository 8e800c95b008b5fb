package main

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := poissonSchedule(42, 10, 20*time.Second, scienceMix)
	b := poissonSchedule(42, 10, 20*time.Second, scienceMix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(43, 10, 20*time.Second, scienceMix)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 200 {
		t.Fatalf("10/s over 20s scheduled %d arrivals, want 200", len(a))
	}
	types := make([]int, len(scienceMix))
	for i, x := range a {
		if x.Due < 0 || x.Due >= 20*time.Second || (i > 0 && x.Due < a[i-1].Due) {
			t.Fatalf("arrival %d due at %v: outside the window or out of order", i, x.Due)
		}
		types[x.Type]++
	}
	for typ, n := range types {
		if n == 0 {
			t.Errorf("no arrivals of type %d in 200", typ)
		}
	}
	// The payloads are functions of the key too.
	if !reflect.DeepEqual(cifarImage(7), cifarImage(7)) || formula(7) != formula(7) {
		t.Fatal("payload generation is not deterministic")
	}
	if _, err := featurize(formula(7)); err != nil {
		t.Fatalf("generated formula %q does not parse: %v", formula(7), err)
	}
}

func TestPercentilesCountFailuresAsMisses(t *testing.T) {
	milli := time.Millisecond
	samples := []sample{
		{kind: opRun, lat: 1 * milli, ok: true},
		{kind: opRun, lat: 2 * milli, ok: true},
		{kind: opRun, lat: 3 * milli, ok: true},
		{kind: opRun, lat: 4 * milli, ok: false}, // fast, but failed
		{kind: opWrite, lat: 9 * milli, ok: true},
	}
	runs := latencies(samples, opRun)
	if got := percentile(runs, 0.5); got != 2*milli {
		t.Errorf("p50 = %v, want 2ms", got)
	}
	if got := percentile(runs, 0.75); got != 3*milli {
		t.Errorf("p75 = %v, want 3ms", got)
	}
	if got := percentile(runs, 0.99); got != failed {
		t.Errorf("p99 = %v, want the failure to read as a miss", got)
	}
	if got := ms(percentile(runs, 0.99)); got != ms(missTimeout) {
		t.Errorf("a missed percentile reports %vms, want the %v timeout", got, missTimeout)
	}
	// Goodput: runs completed within the limit, per second. The failed
	// run is a miss even though its latency is under the limit; the
	// write is not a run.
	if got := goodput(samples, opRun, 2500*time.Microsecond, time.Second); got != 2 {
		t.Errorf("goodput = %v, want 2", got)
	}
	if a, f := tally(samples); a != 5 || f != 1 {
		t.Errorf("tally = %d attempted, %d failed; want 5, 1", a, f)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, p99) = %d, want 10", got)
	}
}

func TestSelfTimesAndResidual(t *testing.T) {
	// root 0..100 with children a 10..60 (holding g 20..30) and b 50..90:
	// a and b overlap on 50..60, which both count as self time.
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 60},
		{Name: "g", Parent: 1, Start: 20, End: 30},
		{Name: "b", Parent: 0, Start: 50, End: 90},
	}
	self := selfTimes(spans)
	if want := []int64{20, 40, 10, 40}; !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	if got := unattributed(spans, self); got != -10 {
		t.Fatalf("residual = %d, want -10 (the overlap counted twice)", got)
	}
	// A child sticking out of its parent is clipped in the parent's
	// coverage but keeps its own duration.
	out := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "c", Parent: 0, Start: 80, End: 130},
	}
	if got := unattributed(out, selfTimes(out)); got != -30 {
		t.Fatalf("residual = %d, want -30", got)
	}
}

func TestReplySpansAddUpToClientLatency(t *testing.T) {
	// An SDK call of 200µs whose handler ran 30..180µs, over a reply of
	// request 100µs, invocation 60µs, inference 20µs.
	b := &builder{}
	root := b.add("sdk", -1, 0, 200_000)
	h := b.add("http", root, 30_000, 180_000)
	b.nestReply(h, reply{requestUS: 100, invocationUS: 60, inferenceUS: 20})
	got := layerSelf(b.spans)
	want := map[string]int64{
		"sdk.self_us": 50_000, "http.self_us": 50_000, "dispatch.self_us": 40_000,
		"tm.self_us": 40_000, "servable.inference_us": 20_000, "unattributed_us": 0,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("layer self times = %v, want %v", got, want)
	}
	var total int64
	for _, v := range got {
		total += v
	}
	if total != 200_000 {
		t.Fatalf("self times plus residual = %d, want the client's 200000", total)
	}

	// A pipeline: two sequential steps inside the pipeline span.
	b = &builder{}
	root = b.add("service", -1, 0, 100_000)
	b.nestReply(root, reply{requestUS: 90, steps: []stepTiming{
		{requestUS: 40, invocationUS: 10, inferenceUS: 5},
		{requestUS: 30, invocationUS: 10, inferenceUS: 5},
	}})
	got = layerSelf(b.spans)
	want = map[string]int64{
		"http.self_us": 10_000, "pipeline.self_us": 20_000, "dispatch.self_us": 50_000,
		"tm.self_us": 10_000, "servable.inference_us": 10_000, "unattributed_us": 0,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pipeline self times = %v, want %v", got, want)
	}

	// Inference reported longer than its invocation (a batch's summed
	// items) sticks out: the residual shows the double count.
	b = &builder{}
	root = b.add("service", -1, 0, 100_000)
	b.nestReply(root, reply{requestUS: 90, invocationUS: 50, inferenceUS: 80})
	if got := layerSelf(b.spans)["unattributed_us"]; got != -30_000 {
		t.Fatalf("residual = %d, want -30000", got)
	}

	// A cache hit's replayed timings are not nested.
	b = &builder{}
	root = b.add("service", -1, 0, 10_000)
	b.nestReply(root, reply{requestUS: 2, invocationUS: 50, inferenceUS: 40, cacheHit: true})
	if got := layerSelf(b.spans); got["tm.self_us"] != 0 || got["unattributed_us"] != 0 {
		t.Fatalf("cache hit self times = %v, want no TM time and no residual", got)
	}
}

func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	// Both requests are due at once; the op holds the first one, and the
	// generator sends each from its own goroutine, so neither waits for
	// the other — but each latency still runs from its due time.
	sched := []arrival{{Due: 0}, {Due: 0}, {Due: 5 * time.Millisecond}}
	samples, late, _ := openLoop(sched, func(i int, a arrival) sample {
		time.Sleep(10 * time.Millisecond)
		return sample{kind: opRun, ok: true}
	})
	for i, s := range samples {
		if s.lat < 10*time.Millisecond {
			t.Errorf("request %d latency %v is shorter than its 10ms service time", i, s.lat)
		}
		if s.lat < late[i] {
			t.Errorf("request %d latency %v excludes its %v late send", i, s.lat, late[i])
		}
	}
}

func TestSlicedTakesTheMedianSlice(t *testing.T) {
	// Ten 1 s slices, 100 runs each; slices 3 and 7 are stalled (10×
	// slower, a tenth of the runs).
	var samples []sample
	for slice := 0; slice < sliceCount; slice++ {
		n, lat := 100, time.Millisecond
		if slice == 3 || slice == 7 {
			n, lat = 10, 10*time.Millisecond
		}
		for i := 0; i < n; i++ {
			at := time.Duration(slice)*time.Second + time.Duration(i)*time.Second/time.Duration(n)
			samples = append(samples, sample{kind: opRun, lat: lat, ok: true, at: at})
		}
	}
	rate := sliced(samples, 10*time.Second, func(ss []sample, d time.Duration) float64 {
		return float64(completed(ss)) / d.Seconds()
	})
	if rate != 100 {
		t.Errorf("sliced throughput = %v, want the unstalled 100/s", rate)
	}
	p50 := sliced(samples, 10*time.Second, func(ss []sample, _ time.Duration) float64 {
		return ms(percentile(latencies(ss, opRun), 0.5))
	})
	if p50 != 1 {
		t.Errorf("sliced p50 = %vms, want 1ms", p50)
	}
}
