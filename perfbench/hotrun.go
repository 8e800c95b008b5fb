package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/dlhub"
	"repro/internal/auth"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/servable"
	"repro/internal/simconst"
)

// hot-run: the platform hot path. nproc SDK clients in a closed loop,
// each logged in as its own tenant's user under strict token auth, run
// the noop servable (2 replicas on each of 2 Task Managers) over the
// TCP queue, with every emulated delay compressed to zero and every
// input unique and sent with NoMemo, so no cache answers. Its time goes
// to core.http, auth, core.admit, queue/rpc, taskmanager and executor.

type hotRig struct {
	tb      *bench.Testbed
	fr      *front
	clients []*sdk
	bearer  string
	owner   core.Caller
	id      string
	// repoIDs[c] are the repository documents client c owns.
	repoIDs [][]string
	seed    int64
	windows int
}

// repoDocsPerClient is how many repository documents each hot-run
// client owns, updates and searches for.
const repoDocsPerClient = 4

func startHotRun(e *env) (rig, error) {
	simconst.Scale = math.Inf(1)
	as := auth.NewService(time.Hour)
	as.RegisterProvider("perfbench")
	as.RegisterClient("dlhub", "DLHub Management Service", "dlhub:serve")
	tb, err := bench.NewTestbed(bench.Options{
		WAN: true, Heartbeat: heartbeat, Auth: as, RunScope: "dlhub:serve", RequireAuth: true,
		AuthClientID: "dlhub", AuthProvider: "perfbench",
	})
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	r := &hotRig{tb: tb, seed: e.seed}
	if err := r.assemble(e); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *hotRig) assemble(e *env) error {
	ctx := context.Background()
	if _, err := r.tb.AddTM("tm-2", 4); err != nil {
		return fmt.Errorf("add TM: %w", err)
	}
	if err := r.tb.MS.WaitForTM(2, 10*time.Second); err != nil {
		return err
	}
	fr, err := serve(r.tb.MS)
	if err != nil {
		return err
	}
	r.fr = fr
	open := newSDK(fr.url, "")
	defer open.close()
	const password = "perfbench-pw"
	for i := 0; i < e.nproc; i++ {
		user, tenant := fmt.Sprintf("user%d", i), fmt.Sprintf("tenant%d", i)
		if _, err := r.tb.MS.SetTenantQuota(tenant, auth.Quota{MaxInFlight: 64}); err != nil {
			return fmt.Errorf("tenant quota: %w", err)
		}
		if _, err := open.c.Register(ctx, dlhub.RegisterRequest{Username: user, Password: password, Tenant: tenant}); err != nil {
			return fmt.Errorf("register: %w", err)
		}
		login, err := open.c.Login(ctx, "", user, password)
		if err != nil {
			return fmt.Errorf("login: %w", err)
		}
		r.clients = append(r.clients, newSDK(fr.url, login.AccessToken))
		bearer := "Bearer " + login.AccessToken
		caller, err := r.tb.MS.ResolveCaller(bearer)
		if err != nil {
			return fmt.Errorf("resolve caller: %w", err)
		}
		var ids []string
		for k := 0; k < repoDocsPerClient; k++ {
			id, err := r.tb.MS.Publish(ctx, caller, repoDoc(fmt.Sprintf("hot-doc-%d", k), "Hot-run repository document", "platform", "noop:hello"))
			if err != nil {
				return fmt.Errorf("publish: %w", err)
			}
			ids = append(ids, id)
		}
		r.repoIDs = append(r.repoIDs, ids)
		if i == 0 {
			r.bearer, r.owner = bearer, caller
		}
	}
	if r.id, err = r.tb.MS.Publish(ctx, r.owner, servable.NoopPackage()); err != nil {
		return fmt.Errorf("publish noop: %w", err)
	}
	for _, tm := range []string{"cooley-tm-1", "tm-2"} {
		if err := r.tb.MS.DeployTo(ctx, r.owner, r.id, 2, "parsl", tm); err != nil {
			return fmt.Errorf("deploy noop: %w", err)
		}
	}
	for _, c := range r.clients {
		res, err := c.c.RunWith(ctx, r.id, "prime", dlhub.RunConfig{NoMemo: true})
		if err != nil {
			return fmt.Errorf("prime: %w", err)
		}
		if res.Output != "hello world" {
			return fmt.Errorf("prime: noop returned %v", res.Output)
		}
	}
	return nil
}

func (r *hotRig) window(d time.Duration, tr *tracer) (windowResult, error) {
	r.windows++
	r.fr.h.tr.Store(tr)
	defer r.fr.h.tr.Store(nil)
	var wr windowResult
	var mu sync.Mutex
	stop := make(chan struct{})
	g := sampleGauges(r.tb.MS, stop)
	repoSeed := r.seed*100 + int64(r.windows)
	wr.samples, wr.span = closedLoop(len(r.clients), d, func(c, seq int, out []sample) []sample {
		cl := r.clients[c]
		if seq%repoEvery == repoEvery-1 {
			return r.repoOp(cl, tr, &wr, &mu, repoSeed, c, seq/repoEvery, out)
		}
		input := fmt.Sprintf("in-%d-%d-%d-%d", r.seed, r.windows, c, seq)
		var got any
		lat, err := cl.call(tr, "run", func() (reply, error) {
			res, err := cl.c.RunWith(context.Background(), r.id, input, dlhub.RunConfig{NoMemo: true})
			if err != nil {
				return reply{}, err
			}
			got = res.Output
			return sdkReply(res), nil
		})
		ok := err == nil && got == "hello world"
		if err == nil && !ok {
			mu.Lock()
			wr.checkf("noop returned %v for %q", got, input)
			mu.Unlock()
		}
		return append(out, sample{kind: opRun, lat: lat, ok: ok})
	})
	close(stop)
	wr.sampled = <-g
	wr.measured, wr.closed = len(wr.samples), true
	return wr, nil
}

// repoEvery is how often a hot-run client's operation is a repository
// operation pair instead of a run: every repoEvery-th. Spread over the
// whole window, the writes and searches are sliced like the runs, so a
// few stalled seconds of the shared machine cannot move their medians.
const repoEvery = 8

// repoOp is client c's n-th repository operation pair (see repoOp in
// sdk.go) on a document the client owns, through the SDK; no other
// client can overwrite the token it then searches for.
func (r *hotRig) repoOp(cl *sdk, tr *tracer, wr *windowResult, mu *sync.Mutex, seed int64, c, n int, out []sample) []sample {
	id := r.repoIDs[c][n%repoDocsPerClient]
	tok := revToken("rev", seed, int64(n*len(r.clients)+c))
	var local windowResult
	repoOp(&local, id, tok,
		func(desc string) (time.Duration, error) {
			return cl.call(tr, "write", func() (reply, error) { return reply{}, cl.c.UpdateDescription(id, desc) })
		},
		func() ([]string, time.Duration, error) {
			var ids []string
			lat, err := cl.call(tr, "search", func() (reply, error) {
				res, err := cl.c.SearchCtx(context.Background(), tok, dlhub.SearchOptions{Limit: 10})
				if err == nil {
					ids = res.IDs
				}
				return reply{}, err
			})
			return ids, lat, err
		})
	if local.wrong > 0 {
		mu.Lock()
		wr.checkf("%s", local.firstWrong)
		mu.Unlock()
	}
	return append(out, local.samples...)
}

func (r *hotRig) probe(e *env, m metrics) error {
	return probeRepo(r.tb.MS, r.owner, r.repoIDs[0], "", r.bearer, e.seed, m)
}

func (r *hotRig) finish() (float64, error) { return 0, nil }

func (r *hotRig) service() *core.Service { return r.tb.MS }

func (r *hotRig) close() {
	for _, c := range r.clients {
		c.close()
	}
	if r.fr != nil {
		r.fr.close()
	}
	r.tb.Close()
}
