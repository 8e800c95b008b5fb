package main

import (
	"net"
	"net/http"
	"slices"
	"time"

	"repro/dlhub"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/servable"
	"repro/internal/taskmanager"
)

// front serves a Management Service's HTTP handler on loopback, wrapped
// by the benchmark's span handler.
type front struct {
	srv  *http.Server
	url  string
	h    *spanHandler
	done chan struct{}
}

func serve(s *core.Service) (*front, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &spanHandler{next: s.Handler()}
	f := &front{srv: &http.Server{Handler: h}, url: "http://" + l.Addr().String(), h: h, done: make(chan struct{})}
	go func() {
		_ = f.srv.Serve(l) // returns ErrServerClosed on close
		close(f.done)
	}()
	return f, nil
}

func (f *front) close() {
	f.srv.Close()
	<-f.done
}

// sdk is one dlhub SDK client with a single HTTP connection of its own.
type sdk struct {
	c  *dlhub.Client
	tp *stampTransport
}

func newSDK(url, token string) *sdk {
	tp := &stampTransport{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	c := dlhub.NewClient(url, token)
	c.HTTPClient = &http.Client{Transport: tp, Timeout: time.Minute}
	return &sdk{c: c, tp: tp}
}

func (s *sdk) close() { s.tp.base.CloseIdleConnections() }

// call times one SDK call. When tr is set the call carries a fresh
// correlation ID and its span tree is recorded on success.
func (s *sdk) call(tr *tracer, kind string, f func() (reply, error)) (time.Duration, error) {
	var id string
	if tr != nil {
		id = tr.newID()
		s.tp.id.Store(&id)
	}
	t0 := time.Now()
	r, err := f()
	t1 := time.Now()
	if tr != nil {
		s.tp.id.Store(nil)
		if err == nil {
			tr.traceSDK(id, kind, t0, t1, r)
		}
	}
	return t1.Sub(t0), err
}

// direct times one core.Service call, recording its span tree when tr
// is set.
func direct(tr *tracer, kind string, f func() (core.RunResult, error)) (core.RunResult, time.Duration, error) {
	t0 := time.Now()
	res, err := f()
	t1 := time.Now()
	if tr != nil && err == nil {
		tr.traceDirect(tr.newID(), kind, t0, t1, coreReply(res))
	}
	return res, t1.Sub(t0), err
}

func sdkReply(r *dlhub.RunResult) reply {
	return newReply(r.RequestMicros, r.InvocationMicros, r.InferenceMicros, r.CacheHit, r.Steps)
}

func coreReply(r core.RunResult) reply {
	return newReply(r.RequestMicros, r.InvocationMicros, r.InferenceMicros, r.CacheHit, r.Steps)
}

func newReply(req, inv, inf int64, hit bool, steps []taskmanager.StepStat) reply {
	out := reply{requestUS: req, invocationUS: inv, inferenceUS: inf, cacheHit: hit}
	for _, s := range steps {
		out.steps = append(out.steps, stepTiming{s.RequestMicros, s.InvocationMicros, s.InferenceMicros, s.CacheHit})
	}
	return out
}

// repoDoc is a small published-but-undeployed servable document, the
// target of repository writes and searches.
func repoDoc(name, title, domain, entry string) *servable.Package {
	servable.RegisterBuiltins()
	return &servable.Package{Doc: &schema.Document{
		Publication: schema.Publication{
			Name:        name,
			Title:       title,
			Authors:     []string{"Bench, Perf"},
			Description: "initial revision",
			Domains:     []string{domain},
			VisibleTo:   []string{"public"},
		},
		Servable: schema.Servable{
			Type:   schema.TypePythonFunction,
			Entry:  entry,
			Input:  schema.DataType{Kind: "string"},
			Output: schema.DataType{Kind: "string"},
		},
	}}
}

// repoOp is one repository operation pair: a metadata update writing
// token into the servable's description, then a search for the token,
// which must find the servable (read-your-writes). update and find
// issue the calls through the workload's entry point and return their
// latencies.
func repoOp(wr *windowResult, id, token string,
	update func(desc string) (time.Duration, error),
	find func() ([]string, time.Duration, error)) {
	lat, err := update("perfbench revision " + token)
	wr.samples = append(wr.samples, sample{kind: opWrite, lat: lat, ok: err == nil})
	if err != nil {
		return
	}
	found, lat, err := find()
	ok := err == nil && slices.Contains(found, id)
	if err == nil && !ok {
		wr.checkf("search for %s right after updating %s found %v", token, id, found)
	}
	wr.samples = append(wr.samples, sample{kind: opSearch, lat: lat, ok: ok})
}
