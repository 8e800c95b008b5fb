// Package clipper reproduces the Clipper baseline of §III-B and §V-B5:
// a prediction-serving system whose query frontend runs as a pod on the
// Kubernetes cluster, fronting model containers over in-cluster RPC.
// Its defining contrast with DLHub in Fig. 8 is cache placement:
// "Clipper ... maintains a cache at the query frontend that is deployed
// as a pod on the Kubernetes cluster. Hence, cached responses still
// require the request to be transmitted to the query frontend, leading
// to additional overhead" — whereas DLHub's Parsl cache lives at the
// Task Manager.
package clipper

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/container"
	"repro/internal/executor"
	"repro/internal/k8s"
	"repro/internal/netsim"
	"repro/internal/rpc"
	"repro/internal/servable"
	"repro/internal/simconst"
)

// Entrypoints for the two Clipper container roles.
const (
	FrontendEntrypoint = "clipper-query-frontend"
	ModelEntrypoint    = "clipper-model-container"
)

// Frontend is the query-frontend process: it owns the in-cluster cache
// and routes to model containers.
type Frontend struct {
	mu       sync.Mutex
	srv      *rpc.Server
	addr     string
	models   map[string][]*rpc.Client // servable id -> model container conns
	rr       map[string]int
	cache    map[string][]byte
	caching  bool
	hits     uint64
	requests uint64
}

// NewFrontendFactory returns the frontend's container process factory.
func NewFrontendFactory() container.ProcessFactory {
	return func() container.Process {
		return &Frontend{
			models: make(map[string][]*rpc.Client),
			rr:     make(map[string]int),
			cache:  make(map[string][]byte),
		}
	}
}

// Start implements container.Process: the frontend serves immediately;
// model containers register afterwards via AttachModel.
func (f *Frontend) Start(fs map[string][]byte, env map[string]string) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := rpc.NewServer()
	srv.Handle("clipper.predict", f.handlePredict)
	go srv.Serve(l) //nolint:errcheck
	f.mu.Lock()
	f.srv = srv
	f.addr = l.Addr().String()
	f.mu.Unlock()
	return nil
}

type predictRequest struct {
	Servable string          `json:"servable"`
	Input    json.RawMessage `json:"input"`
}

func (f *Frontend) handlePredict(ctx context.Context, payload []byte) ([]byte, error) {
	// Frontend queueing/framing cost.
	time.Sleep(simconst.D(simconst.ClipperFrontendOverhead))

	var req predictRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("clipper: bad predict request: %w", err)
	}

	f.mu.Lock()
	f.requests++
	caching := f.caching
	var key string
	if caching {
		sum := sha256.Sum256(append([]byte(req.Servable+"\x00"), req.Input...))
		key = hex.EncodeToString(sum[:])
		if cached, ok := f.cache[key]; ok {
			f.hits++
			f.mu.Unlock()
			return cached, nil
		}
	}
	conns := f.models[req.Servable]
	if len(conns) == 0 {
		f.mu.Unlock()
		return nil, fmt.Errorf("clipper: model %q not registered", req.Servable)
	}
	idx := f.rr[req.Servable]
	f.rr[req.Servable] = idx + 1
	client := conns[idx%len(conns)]
	f.mu.Unlock()

	out, err := client.Call(ctx, "run", req.Input)
	if err != nil {
		return nil, err
	}
	if caching {
		f.mu.Lock()
		f.cache[key] = out
		f.mu.Unlock()
	}
	return out, nil
}

// AttachModel registers model-container connections for a servable.
func (f *Frontend) AttachModel(servableID string, conns []*rpc.Client) {
	f.mu.Lock()
	old := f.models[servableID]
	f.models[servableID] = conns
	f.mu.Unlock()
	for _, c := range old {
		c.Close()
	}
}

// SetCaching toggles the frontend cache (Fig. 8 ±memoization runs).
func (f *Frontend) SetCaching(on bool) {
	f.mu.Lock()
	f.caching = on
	if !on {
		f.cache = make(map[string][]byte)
	}
	f.mu.Unlock()
}

// CacheStats reports (requests, hits).
func (f *Frontend) CacheStats() (uint64, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.requests, f.hits
}

// Stop implements container.Process.
func (f *Frontend) Stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.srv != nil {
		f.srv.Close()
	}
	for _, conns := range f.models {
		for _, c := range conns {
			c.Close()
		}
	}
}

// Addr returns the frontend's serving address.
func (f *Frontend) Addr() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.addr
}

// --- system ------------------------------------------------------------------

// System is a deployed Clipper instance: one query frontend plus model
// deployments, all on the cluster. It implements executor.Executor so
// the Task Manager can route to it like any serving system.
type System struct {
	cluster *k8s.Cluster
	builder *container.Builder
	tmLink  netsim.Profile // TM <-> cluster (requests enter here)

	mu       sync.Mutex
	frontend *Frontend
	fePod    string
	feClient *rpc.Client
	models   map[string]string // servable id -> model deployment name
}

// New deploys the Clipper query frontend on the cluster. Model
// containers use executor.PodServer (python-hosted), matching Clipper's
// Docker model containers.
func New(cluster *k8s.Cluster, builder *container.Builder, runtime *container.Runtime, tmLink netsim.Profile) (*System, error) {
	runtime.RegisterProcess(FrontendEntrypoint, NewFrontendFactory())
	runtime.RegisterProcess(ModelEntrypoint, executor.NewPodProcessFactory(true))

	if _, err := builder.Build(container.BuildSpec{
		Name: "clipper/frontend", Tag: "0.3", Entrypoint: FrontendEntrypoint,
	}); err != nil {
		return nil, err
	}
	pod, err := cluster.RunPod("clipper-frontend", k8s.PodSpec{
		Image:    "clipper/frontend:0.3",
		Requests: k8s.Resources{MilliCPU: 2000, MemMB: 4096},
		Labels:   map[string]string{"app": "clipper-frontend"},
	})
	if err != nil {
		return nil, err
	}
	fe := pod.Container().Proc.(*Frontend)
	conn, err := net.Dial("tcp", fe.Addr())
	if err != nil {
		return nil, err
	}
	return &System{
		cluster:  cluster,
		builder:  builder,
		tmLink:   tmLink,
		frontend: fe,
		fePod:    pod.Name,
		feClient: rpc.NewClient(netsim.Wrap(conn, tmLink)),
		models:   make(map[string]string),
	}, nil
}

// Name implements executor.Executor.
func (s *System) Name() string { return "clipper" }

// SetCaching toggles frontend memoization.
func (s *System) SetCaching(on bool) { s.frontend.SetCaching(on) }

// CacheStats exposes frontend cache statistics.
func (s *System) CacheStats() (uint64, uint64) { return s.frontend.CacheStats() }

// Deploy implements executor.Executor: build the model image, deploy
// replicas, connect the frontend to them over the in-cluster link.
func (s *System) Deploy(pkg *servable.Package, replicas int) error {
	img, err := executor.BuildServableImage(s.builder, pkg, ModelEntrypoint)
	if err != nil {
		return err
	}
	depName := "clipper-" + pkg.Doc.Publication.Name
	if _, err := s.cluster.CreateDeployment(depName, k8s.PodSpec{
		Image:    img.Ref(),
		Requests: k8s.Resources{MilliCPU: 1000, MemMB: 2048},
	}, replicas); err != nil {
		return err
	}
	s.mu.Lock()
	s.models[pkg.Doc.ID] = depName
	s.mu.Unlock()
	return s.reattach(pkg.Doc.ID, depName)
}

// reattach connects the frontend to current model pods over the
// cluster-internal link.
func (s *System) reattach(servableID, depName string) error {
	pods := s.cluster.PodsMatching(map[string]string{"deployment": depName})
	clusterLink := netsim.RTT(simconst.D(simconst.ClusterInternalRTT), simconst.BW(simconst.LinkBandwidth))
	var conns []*rpc.Client
	for _, pod := range pods {
		client, err := executor.DialPod(pod, clusterLink)
		if err != nil {
			return err
		}
		conns = append(conns, client)
	}
	s.frontend.AttachModel(servableID, conns)
	return nil
}

// Scale implements executor.Executor.
func (s *System) Scale(servableID string, replicas int) error {
	s.mu.Lock()
	depName, ok := s.models[servableID]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", executor.ErrNotDeployed, servableID)
	}
	if err := s.cluster.Scale(depName, replicas); err != nil {
		return err
	}
	return s.reattach(servableID, depName)
}

// Replicas implements executor.Executor.
func (s *System) Replicas(servableID string) int {
	s.mu.Lock()
	depName, ok := s.models[servableID]
	s.mu.Unlock()
	if !ok {
		return 0
	}
	return len(s.cluster.PodsMatching(map[string]string{"deployment": depName}))
}

// Invoke implements executor.Executor: requests go TM -> frontend ->
// model container, the topology whose cache placement Fig. 8 exposes.
func (s *System) Invoke(ctx context.Context, servableID string, input any) (executor.Result, error) {
	s.mu.Lock()
	if _, ok := s.models[servableID]; !ok {
		s.mu.Unlock()
		return executor.Result{}, fmt.Errorf("%w: %s", executor.ErrNotDeployed, servableID)
	}
	s.mu.Unlock()

	inputData, err := json.Marshal(input)
	if err != nil {
		return executor.Result{}, err
	}
	payload, err := json.Marshal(predictRequest{Servable: servableID, Input: inputData})
	if err != nil {
		return executor.Result{}, err
	}
	data, err := s.feClient.Call(ctx, "clipper.predict", payload)
	if err != nil {
		return executor.Result{}, err
	}
	var res executor.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return executor.Result{}, err
	}
	return res, nil
}

// Undeploy implements executor.Executor.
func (s *System) Undeploy(servableID string) error {
	s.mu.Lock()
	depName, ok := s.models[servableID]
	if ok {
		delete(s.models, servableID)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", executor.ErrNotDeployed, servableID)
	}
	s.frontend.AttachModel(servableID, nil)
	return s.cluster.DeleteDeployment(depName)
}

// Close implements executor.Executor.
func (s *System) Close() {
	s.mu.Lock()
	ids := make([]string, 0, len(s.models))
	for id := range s.models {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	for _, id := range ids {
		s.Undeploy(id) //nolint:errcheck
	}
	s.feClient.Close()
	s.cluster.DeletePod(s.fePod) //nolint:errcheck
}
