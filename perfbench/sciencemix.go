package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ml/nn"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/servable"
	"repro/internal/simconst"
)

// science-mix: the paper's science serving at paper constants (the
// 20.7 ms WAN RTT and every simconst cost on, memoization off). Open-
// loop Poisson arrivals at one fixed rate; independent users call
// core.Service directly (no connection cap). The mix: CIFAR-10 single
// runs on unique seeded images, CIFAR-10 batches, and the two-step
// matminer pipeline with its steps on different Task Managers. Model
// math, interpreter emulation, WAN and transfer, and queueing for the
// four CIFAR-10 engines dominate.

const (
	scienceRate  = 12.0 // arrivals per second
	scienceBatch = 4    // images per batch request
	// scienceLimit is the latency limit goodput_rps counts against;
	// the open-loop generator must also keep within it.
	scienceLimit = 150 * time.Millisecond
)

// scienceMix weights the request types: single run, batch, pipeline.
var scienceMix = []float64{0.5, 0.2, 0.3}

var scienceKinds = []string{"run", "batch", "pipeline"}

type scienceRig struct {
	tb      *bench.Testbed
	cifarID string
	pipeID  string
	repoIDs []string
	model   *nn.Model
	seed    int64
	windows int
}

func startScienceMix(e *env) (rig, error) {
	simconst.Scale = 1
	tb, err := bench.NewTestbed(bench.Options{WAN: true, Heartbeat: heartbeat})
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	r := &scienceRig{tb: tb, seed: e.seed, model: nn.NewCIFAR10(modelSeed)}
	if err := r.assemble(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *scienceRig) assemble() error {
	ctx := context.Background()
	svc := r.tb.MS
	if _, err := r.tb.AddTM("tm-2", 4); err != nil {
		return fmt.Errorf("add TM: %w", err)
	}
	if err := svc.WaitForTM(2, 10*time.Second); err != nil {
		return err
	}
	cifar, err := servable.CIFAR10Package(modelSeed)
	if err != nil {
		return err
	}
	if r.cifarID, err = svc.Publish(ctx, core.Anonymous, cifar); err != nil {
		return fmt.Errorf("publish cifar10: %w", err)
	}
	utilID, err := svc.Publish(ctx, core.Anonymous, servable.MatminerUtilPackage())
	if err != nil {
		return fmt.Errorf("publish matminer-util: %w", err)
	}
	featID, err := svc.Publish(ctx, core.Anonymous, servable.MatminerFeaturizePackage())
	if err != nil {
		return fmt.Errorf("publish matminer-featurize: %w", err)
	}
	pipe := &servable.Package{Doc: servable.PipelineDoc("matminer-pipeline", "Matminer featurization pipeline", []string{utilID, featID})}
	if r.pipeID, err = svc.Publish(ctx, core.Anonymous, pipe); err != nil {
		return fmt.Errorf("publish pipeline: %w", err)
	}
	for i := 0; i < 8; i++ {
		id, err := svc.Publish(ctx, core.Anonymous, repoDoc(fmt.Sprintf("science-doc-%d", i), "Science repository document", "materials", "noop:hello"))
		if err != nil {
			return fmt.Errorf("publish: %w", err)
		}
		r.repoIDs = append(r.repoIDs, id)
	}

	// Deploy in parallel: 2 CIFAR-10 replicas on each TM, the pipeline's
	// steps on different TMs so the service orchestrates them.
	deploys := []struct {
		id, tm   string
		replicas int
	}{
		{r.cifarID, "cooley-tm-1", 2}, {r.cifarID, "tm-2", 2},
		{utilID, "cooley-tm-1", 1}, {featID, "tm-2", 1},
	}
	errs := make([]error, len(deploys))
	var wg sync.WaitGroup
	for i, d := range deploys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = svc.DeployTo(ctx, core.Anonymous, d.id, d.replicas, "parsl", d.tm)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("deploy: %w", err)
		}
	}

	// Prime each request type once, bypassing every cache.
	for typ := range scienceKinds {
		if _, err := r.do(context.Background(), nil, typ, -1-int64(typ)); err != nil {
			return fmt.Errorf("prime %s: %w", scienceKinds[typ], err)
		}
	}
	return nil
}

// inputs generates a request's input from its key.
func (r *scienceRig) inputs(typ int, key int64) any {
	switch typ {
	case 0:
		return cifarImage(key)
	case 1:
		batch := make([]any, scienceBatch)
		for i := range batch {
			batch[i] = cifarImage(key + int64(i))
		}
		return batch
	default:
		return formula(key)
	}
}

// do issues one request of the given type and returns the reply.
func (r *scienceRig) do(ctx context.Context, tr *tracer, typ int, key int64) (core.RunResult, error) {
	svc := r.tb.MS
	in := r.inputs(typ, key)
	opts := core.RunOptions{NoMemo: true}
	res, _, err := direct(tr, scienceKinds[typ], func() (core.RunResult, error) {
		switch typ {
		case 0:
			return svc.Run(ctx, core.Anonymous, r.cifarID, in, opts)
		case 1:
			return svc.RunBatch(ctx, core.Anonymous, r.cifarID, in.([]any), opts)
		default:
			return svc.Run(ctx, core.Anonymous, r.pipeID, in, opts)
		}
	})
	return res, err
}

func (r *scienceRig) window(d time.Duration, tr *tracer) (windowResult, error) {
	r.windows++
	sched := poissonSchedule(r.seed*1000+int64(r.windows), scienceRate, d, scienceMix)
	replies := make([]core.RunResult, len(sched))
	stop := make(chan struct{})
	g := sampleGauges(r.tb.MS, stop)
	repo := r.repoTrickle(tr, stop)
	samples, late, elapsed := openLoop(sched, func(i int, a arrival) sample {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		res, err := r.do(ctx, tr, a.Type, a.Key)
		replies[i] = res
		return sample{kind: opRun, typ: a.Type, ok: err == nil}
	})
	close(stop)
	wr := windowResult{samples: samples, span: elapsed, late: late, sampled: <-g}

	// Check every reply against a direct computation, after the window
	// so the reference work does not compete with the measured one.
	for i, a := range sched {
		if !wr.samples[i].ok {
			continue
		}
		if err := r.check(a, replies[i]); err != nil {
			wr.samples[i].ok = false
			wr.checkf("%s key %d: %v", scienceKinds[a.Type], a.Key, err)
		}
	}
	wr.measured = len(wr.samples)
	if lag := maxDur(late); lag > scienceLimit {
		wr.checkf("the open-loop generator lagged %v, more than the %v latency limit: the run is not valid", lag, scienceLimit)
	}
	wr.merge(<-repo)
	return wr, nil
}

// repoTrickle runs the repository operations beside the serving window
// until stop is closed: a metadata update on one of the workload's
// servables, then a search for the token it wrote (read-your-writes),
// about every 5 ms. Spreading them over the whole window
// averages out slow swings in the machine's speed; their CPU cost is a
// few percent of one core.
func (r *scienceRig) repoTrickle(tr *tracer, stop <-chan struct{}) <-chan windowResult {
	svc := r.tb.MS
	out := make(chan windowResult, 1)
	go func() {
		var wr windowResult
		seed := r.seed*100 + int64(r.windows)
		for i := 0; ; i++ {
			select {
			case <-stop:
				out <- wr
				return
			default:
			}
			id, tok := r.repoIDs[i%len(r.repoIDs)], revToken("rev", seed, int64(i))
			repoOp(&wr, id, tok,
				func(desc string) (time.Duration, error) {
					_, lat, err := direct(tr, "write", func() (core.RunResult, error) {
						return core.RunResult{}, svc.UpdateMetadata(core.Anonymous, id, func(p *schema.Publication) { p.Description = desc })
					})
					return lat, err
				},
				func() ([]string, time.Duration, error) {
					var ids []string
					_, lat, err := direct(tr, "search", func() (core.RunResult, error) {
						res, err := svc.Search(context.Background(), core.Anonymous, search.Query{Must: []search.Clause{{FreeText: tok}}, Limit: 10})
						for _, h := range res.Hits {
							ids = append(ids, h.Doc.ID)
						}
						return core.RunResult{}, err
					})
					return ids, lat, err
				})
			time.Sleep(5 * time.Millisecond)
		}
	}()
	return out
}

// check compares a reply with the direct computation of its answer:
// CIFAR-10 top-5 from an ml/nn forward pass (every batch item, in
// order), pipeline features from matsci featurization.
func (r *scienceRig) check(a arrival, res core.RunResult) error {
	switch a.Type {
	case 0:
		return sameTop5(res.Output, top5(r.model, cifarImage(a.Key)))
	case 1:
		if len(res.Outputs) != scienceBatch {
			return fmt.Errorf("batch of %d returned %d outputs", scienceBatch, len(res.Outputs))
		}
		for i, out := range res.Outputs {
			if err := sameTop5(out, top5(r.model, cifarImage(a.Key+int64(i)))); err != nil {
				return fmt.Errorf("item %d: %w", i, err)
			}
		}
		return nil
	default:
		want, err := featurize(formula(a.Key))
		if err != nil {
			return err
		}
		got, ok := res.Output.([]any)
		if !ok || len(got) != len(want) {
			return fmt.Errorf("pipeline returned %T of %d features, want %d", res.Output, len(got), len(want))
		}
		// The featurize step reads the element fractions at float32
		// precision, so features agree to about that precision.
		for i, g := range got {
			if f, ok := g.(float64); !ok || !near(f, want[i], 1e-5) {
				return fmt.Errorf("feature %d is %v, want %v", i, g, want[i])
			}
		}
		return nil
	}
}

// sameTop5 compares a servable's top-5 output, as it arrives from the
// wire, with the reference predictions.
func sameTop5(out any, want []nn.Prediction) error {
	got, ok := out.([]any)
	if !ok || len(got) != len(want) {
		return fmt.Errorf("top-5 output is %T of length %d, want %d predictions", out, len(got), len(want))
	}
	for i, g := range got {
		p, _ := g.(map[string]any)
		prob, _ := p["probability"].(float64)
		if p["label"] != want[i].Label || !near(prob, float64(want[i].Probability), 1e-9) {
			return fmt.Errorf("rank %d is %v, want %s %v", i+1, g, want[i].Label, want[i].Probability)
		}
	}
	return nil
}

func (r *scienceRig) probe(e *env, m metrics) error {
	return probeRepo(r.tb.MS, core.Anonymous, r.repoIDs, "", "", e.seed, m)
}

func (r *scienceRig) finish() (float64, error) { return 0, nil }

func (r *scienceRig) service() *core.Service { return r.tb.MS }

func (r *scienceRig) close() { r.tb.Close() }
