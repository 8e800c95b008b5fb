package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// The traced run records spans from the benchmark's own code, around
// each call into a layer: the SDK call (or the direct core.Service
// call) and the wrapping HTTP handler. The layers below the handler
// are nested from the durations the program already returns on every
// reply — request_us (Management Service), invocation_us (Task
// Manager), inference_us (servable) and, for pipelines, the per-step
// records. The program itself is not instrumented.

// span is one interval of a traced operation, in nanoseconds from the
// operation's root start. Parent indexes the operation's span list
// (-1 for the root).
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opTrace is the span tree of one traced operation.
type opTrace struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	Spans []span `json:"spans"`
}

// layerOf maps a span name to the per-layer metric its self time is
// charged to.
var layerOf = map[string]string{
	"sdk":        "sdk.self_us",
	"http":       "http.self_us",
	"service":    "http.self_us", // a direct core.Service call: the same MS layers, no HTTP
	"request":    "dispatch.self_us",
	"step":       "dispatch.self_us",
	"pipeline":   "pipeline.self_us",
	"invocation": "tm.self_us",
	"inference":  "servable.inference_us",
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children's intervals cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		var ivs [][2]int64
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		for k, iv := range ivs {
			switch {
			case k == 0:
				curLo, curHi = iv[0], iv[1]
			case iv[0] > curHi:
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			case iv[1] > curHi:
				curHi = iv[1]
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// unattributed is the root's duration minus the sum of every span's
// self time: zero for a tree whose children lie inside their parents
// without overlapping, non-zero when spans stick out of their parent
// or overlap (time counted twice or not at all).
func unattributed(spans []span, self []int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	r := spans[0].End - spans[0].Start
	for _, s := range self {
		r -= s
	}
	return r
}

// layerSelf sums one operation's self times per layer metric, and adds
// the unattributed residual.
func layerSelf(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for i, s := range spans {
		if l, ok := layerOf[s.Name]; ok {
			out[l] += self[i]
		}
	}
	out["unattributed_us"] = unattributed(spans, self)
	return out
}

// reply is the part of a run reply the span tree is nested from, in
// the microseconds the program reports.
type reply struct {
	requestUS, invocationUS, inferenceUS int64
	// cacheHit marks a reply the service cache answered: its invocation
	// and inference times are the original execution's, not this
	// request's, so nothing is nested below its request span.
	cacheHit bool
	steps    []stepTiming
}

type stepTiming struct {
	requestUS, invocationUS, inferenceUS int64
	cacheHit                             bool
}

// builder appends spans to one operation's tree.
type builder struct{ spans []span }

func (b *builder) add(name string, parent int, start, end int64) int {
	b.spans = append(b.spans, span{Name: name, Parent: parent, Start: start, End: end})
	return len(b.spans) - 1
}

// nest places children of the given microsecond durations one after
// another, the block centred in the parent: only durations are known,
// not offsets. A block longer than its parent sticks out on both sides,
// which shows as a negative unattributed residual.
func (b *builder) nest(parent int, name string, durUS []int64) []int {
	p := b.spans[parent]
	var total int64
	for _, d := range durUS {
		total += d * 1000
	}
	at := p.Start + (p.End-p.Start-total)/2
	idx := make([]int, len(durUS))
	for i, d := range durUS {
		idx[i] = b.add(name, parent, at, at+d*1000)
		at += d * 1000
	}
	return idx
}

// nestReply hangs the Management Service's request span, and below it
// the Task Manager and servable spans, under parent.
func (b *builder) nestReply(parent int, r reply) {
	if len(r.steps) == 0 {
		req := b.nest(parent, "request", []int64{r.requestUS})[0]
		if !r.cacheHit {
			inv := b.nest(req, "invocation", []int64{r.invocationUS})[0]
			b.nest(inv, "inference", []int64{r.inferenceUS})
		}
		return
	}
	pipe := b.nest(parent, "pipeline", []int64{r.requestUS})[0]
	durs := make([]int64, len(r.steps))
	for i, st := range r.steps {
		durs[i] = st.requestUS
	}
	for i, step := range b.nest(pipe, "step", durs) {
		if st := r.steps[i]; !st.cacheHit {
			inv := b.nest(step, "invocation", []int64{st.invocationUS})[0]
			b.nest(inv, "inference", []int64{st.inferenceUS})
		}
	}
}

// tracer collects the span trees of a traced window.
type tracer struct {
	mu   sync.Mutex
	ops  []opTrace
	next atomic.Uint64
	// handler spans recorded by the wrapping handler, by request ID.
	hmu      sync.Mutex
	handlers map[string][2]time.Time
}

func newTracer() *tracer { return &tracer{handlers: make(map[string][2]time.Time)} }

// newID mints a correlation ID for one SDK call.
func (t *tracer) newID() string { return "pb-" + strconv.FormatUint(t.next.Add(1), 36) }

// record stores one operation's span tree.
func (t *tracer) record(op opTrace) {
	t.mu.Lock()
	t.ops = append(t.ops, op)
	t.mu.Unlock()
}

// takeHandler returns (and forgets) the handler span of a request. A
// response larger than the server's write buffer can reach the client
// before the wrapping handler has stored its span, so a missing span is
// waited for briefly.
func (t *tracer) takeHandler(id string) (start, end time.Time, ok bool) {
	for try := 0; try < 100; try++ {
		t.hmu.Lock()
		se, ok := t.handlers[id]
		delete(t.handlers, id)
		t.hmu.Unlock()
		if ok {
			return se[0], se[1], true
		}
		time.Sleep(50 * time.Microsecond)
	}
	return time.Time{}, time.Time{}, false
}

// traceSDK records an SDK operation: the client span from t0 to t1, the
// handler span matched by request ID, and the reply's nested spans.
func (t *tracer) traceSDK(id, kind string, t0, t1 time.Time, r reply) {
	b := &builder{}
	root := b.add("sdk", -1, 0, int64(t1.Sub(t0)))
	if hs, he, ok := t.takeHandler(id); ok {
		h := b.add("http", root, int64(hs.Sub(t0)), int64(he.Sub(t0)))
		if inference(kind) {
			b.nestReply(h, r)
		}
	}
	t.record(opTrace{ID: id, Kind: kind, Spans: b.spans})
}

// traceDirect records a direct core.Service call from t0 to t1.
func (t *tracer) traceDirect(id, kind string, t0, t1 time.Time, r reply) {
	b := &builder{}
	root := b.add("service", -1, 0, int64(t1.Sub(t0)))
	if inference(kind) {
		b.nestReply(root, r)
	}
	t.record(opTrace{ID: id, Kind: kind, Spans: b.spans})
}

// inference reports whether an operation kind carries run timings;
// repository writes and searches do not.
func inference(kind string) bool { return kind != "write" && kind != "search" }

// spanFileOps caps how many span trees write saves; the per-layer
// metrics use every recorded tree.
const spanFileOps = 20000

// write saves the first spanFileOps recorded span trees as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, op := range t.ops[:min(len(t.ops), spanFileOps)] {
		if err := enc.Encode(op); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// handlerSpans wraps the service handler: while a tracer is installed,
// it times every request carrying a correlation ID.
type spanHandler struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := h.tr.Load()
	id := r.Header.Get(core.RequestIDHeader)
	if t == nil || id == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	t.hmu.Lock()
	t.handlers[id] = [2]time.Time{start, end}
	t.hmu.Unlock()
}

// stampTransport is an SDK client's HTTPClient transport: it stamps
// the correlation ID of the call in progress as X-Request-ID. Each SDK
// client issues one call at a time, so one slot per client suffices.
type stampTransport struct {
	base *http.Transport
	id   atomic.Pointer[string]
}

func (s *stampTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := s.id.Load(); id != nil {
		r = r.Clone(r.Context())
		r.Header.Set(core.RequestIDHeader, *id)
	}
	return s.base.RoundTrip(r)
}

// layerValues collects, over the recorded operations of the given
// kinds, each layer's per-operation self time in µs.
func (t *tracer) layerValues(kinds ...string) map[string][]float64 {
	vals := map[string][]float64{}
	for _, op := range t.ops {
		if !slices.Contains(kinds, op.Kind) {
			continue
		}
		for l, v := range layerSelf(op.Spans) {
			vals[l] = append(vals[l], float64(v)/1000)
		}
	}
	return vals
}
