package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/dlhub"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/simconst"
)

// repo-churn: DLHub as a repository, reads beside writes. nproc SDK
// clients in a closed loop against a durable (WAL-backed) service with
// its result cache on and emulation compressed. The registry holds a
// few hundred servables across several domains, some with several
// versions. Most operations are runs whose inputs repeat with Zipf
// frequencies over a key space larger than the cache; the rest are
// searches and metadata updates on the same servables. Every update
// appends to the WAL, re-indexes the document and invalidates its
// cached results; updates overwrite records and never add new ones.

const (
	churnServables = 500
	churnRunnable  = 8     // deployed servables the runs go to
	churnKeys      = 20000 // run key space, beyond the cache's 4096 entries
	churnZipf      = 1.01
	// Operation shares: runs, then writes (each followed by its
	// read-your-writes search), then searches. Writes are rare enough
	// that a run servable's cached results usually outlive the time the
	// cache takes to fill, so evictions happen beside invalidations.
	churnRunShare = 0.90
	churnWriteEnd = 0.915
)

var churnDomains = []string{"chemistry", "materials", "biology", "physics", "climate", "imaging"}

type churnRig struct {
	tb      *bench.Testbed
	fr      *front
	clients []*sdk
	runIDs  []string
	allIDs  []string
	perDom  map[string]int
	walDir  string
	seed    int64
	windows int
}

func startRepoChurn(e *env) (rig, error) {
	simconst.Scale = math.Inf(1)
	dir, err := e.dir("wal")
	if err != nil {
		return nil, err
	}
	tb, err := bench.NewTestbed(bench.Options{WAN: true, ServiceCache: true, DataDir: dir, Heartbeat: heartbeat})
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	r := &churnRig{tb: tb, walDir: dir, seed: e.seed, perDom: map[string]int{}}
	if err := r.assemble(e); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *churnRig) assemble(e *env) error {
	ctx := context.Background()
	svc := r.tb.MS
	for i := 0; i < churnServables; i++ {
		domain := churnDomains[i%len(churnDomains)]
		entry := "noop:hello"
		if i < churnRunnable {
			entry = "test:length"
		}
		pkg := repoDoc(fmt.Sprintf("churn-%03d", i), fmt.Sprintf("Churn model %d", i), domain, entry)
		if entry == "test:length" {
			pkg.Doc.Servable.Output = schema.DataType{Kind: "int"}
		}
		// A fifth of the servables get three versions, another fifth two.
		versions := 1 + max(0, 2-i%5)
		var id string
		for v := 0; v < versions; v++ {
			var err error
			if id, err = svc.Publish(ctx, core.Anonymous, pkg); err != nil {
				return fmt.Errorf("publish: %w", err)
			}
		}
		r.allIDs = append(r.allIDs, id)
		r.perDom[domain]++
		if i < churnRunnable {
			r.runIDs = append(r.runIDs, id)
			if err := svc.Deploy(ctx, core.Anonymous, id, 1, "parsl"); err != nil {
				return fmt.Errorf("deploy: %w", err)
			}
		}
	}
	fr, err := serve(svc)
	if err != nil {
		return err
	}
	r.fr = fr
	for i := 0; i < e.nproc; i++ {
		r.clients = append(r.clients, newSDK(fr.url, ""))
	}
	for _, id := range r.runIDs {
		res, err := r.clients[0].c.RunWith(ctx, id, "prime", dlhub.RunConfig{NoMemo: true})
		if err != nil {
			return fmt.Errorf("prime: %w", err)
		}
		if res.Output != float64(len("prime")) {
			return fmt.Errorf("prime: %s returned %v", id, res.Output)
		}
	}
	return nil
}

func (r *churnRig) window(d time.Duration, tr *tracer) (windowResult, error) {
	r.windows++
	r.fr.h.tr.Store(tr)
	defer r.fr.h.tr.Store(nil)
	var wr windowResult
	var mu sync.Mutex
	wrong := func(format string, args ...any) {
		mu.Lock()
		wr.checkf(format, args...)
		mu.Unlock()
	}
	n := len(r.clients)
	rngs := make([]*rand.Rand, n)
	zipfs := make([]*rand.Zipf, n)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(r.seed*1_000_003 + int64(r.windows)*1009 + int64(c)))
		zipfs[c] = rand.NewZipf(rngs[c], churnZipf, 1, churnKeys-1)
	}
	stop := make(chan struct{})
	g := sampleGauges(r.tb.MS, stop)
	wr.samples, wr.span = closedLoop(n, d, func(c, seq int, out []sample) []sample {
		cl, rng := r.clients[c], rngs[c]
		switch x := rng.Float64(); {
		case x < churnRunShare:
			key := zipfs[c].Uint64()
			id, input := r.runIDs[key%churnRunnable], fmt.Sprintf("key-%d", key)
			var got any
			lat, err := cl.call(tr, "run", func() (reply, error) {
				res, err := cl.c.RunWith(context.Background(), id, input, dlhub.RunConfig{})
				if err != nil {
					return reply{}, err
				}
				got = res.Output
				return sdkReply(res), nil
			})
			ok := err == nil && got == float64(len(input))
			if err == nil && !ok {
				wrong("%s returned %v for %q", id, got, input)
			}
			return append(out, sample{kind: opRun, lat: lat, ok: ok})
		case x < churnWriteEnd:
			// Each client writes only its own share of the servables, so
			// no other client can overwrite the token before the check.
			i := c + n*rng.Intn((len(r.allIDs)-c+n-1)/n)
			id := r.allIDs[i]
			tok := revToken("w", r.seed, int64(r.windows)<<40|int64(c)<<32|int64(seq))
			lat, err := cl.call(tr, "write", func() (reply, error) {
				return reply{}, cl.c.UpdateDescription(id, "churn revision "+tok)
			})
			out = append(out, sample{kind: opWrite, lat: lat, ok: err == nil})
			if err != nil {
				return out
			}
			var found []string
			lat, err = cl.call(tr, "search", func() (reply, error) {
				res, err := cl.c.SearchCtx(context.Background(), tok, dlhub.SearchOptions{Limit: 10})
				if err == nil {
					found = res.IDs
				}
				return reply{}, err
			})
			ok := err == nil && slices.Contains(found, id)
			if err == nil && !ok {
				wrong("search for %s right after updating %s found %v", tok, id, found)
			}
			return append(out, sample{kind: opSearch, lat: lat, ok: ok})
		default:
			domain := churnDomains[rng.Intn(len(churnDomains))]
			total := -1
			lat, err := cl.call(tr, "search", func() (reply, error) {
				res, err := cl.c.SearchCtx(context.Background(), "", dlhub.SearchOptions{Terms: map[string]string{"domains": domain}, Limit: 10})
				if err == nil {
					total = res.Total
				}
				return reply{}, err
			})
			ok := err == nil && total == r.perDom[domain]
			if err == nil && !ok {
				wrong("search of domain %s found %d servables, want %d", domain, total, r.perDom[domain])
			}
			return append(out, sample{kind: opSearch, lat: lat, ok: ok})
		}
	})
	close(stop)
	wr.sampled = <-g
	wr.measured, wr.closed = len(wr.samples), true
	return wr, nil
}

func (r *churnRig) probe(e *env, m metrics) error {
	return probeRepo(r.tb.MS, core.Anonymous, r.allIDs, r.walDir, "", e.seed, m)
}

// finish restarts the Management Service over its durable store and
// checks that the recovered state fingerprints identically.
func (r *churnRig) finish() (float64, error) {
	for _, c := range r.clients {
		c.close()
	}
	r.fr.close()
	r.fr = nil
	before := r.tb.Service().StateFingerprint()
	t0 := time.Now()
	if err := r.tb.RestartMS(); err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	recoverMS := ms(time.Since(t0))
	if after := r.tb.Service().StateFingerprint(); after != before {
		return recoverMS, fmt.Errorf("state after restart differs from before:\n%s\nvs\n%s", before, after)
	}
	return recoverMS, nil
}

func (r *churnRig) service() *core.Service { return r.tb.Service() }

func (r *churnRig) close() {
	for _, c := range r.clients {
		c.close()
	}
	if r.fr != nil {
		r.fr.close()
	}
	r.tb.Close()
}
