// Package simconst collects, in one audited place, every environmental
// constant this reproduction injects instead of measuring on the paper's
// testbed. Each constant cites the paper section it comes from.
//
// Everything else in the repository is really computed: convolutions,
// tree traversals, featurization, JSON/binary encoding, socket I/O. Only
// the costs of hardware and software we cannot run offline (the WAN
// between AWS and Argonne, the CPython interpreter, WSGI, container
// cold starts) are represented by these constants.
package simconst

import (
	"math"
	"time"
)

// Network round-trip times, §V-A "Experimental Setup".
//
// The Management Service ran on Amazon EC2; the Task Manager ran on
// Cooley at the ALCF; servables ran on PetrelKube, a 14-node Kubernetes
// cluster co-located with Cooley. The paper reports the two measured
// RTTs below and notes that "these overheads are consistent across our
// tests and are present regardless of executor or serving infrastructure
// used."
const (
	// RTTManagementToTM is the EC2 <-> Cooley round-trip time (20.7 ms).
	RTTManagementToTM = 20700 * time.Microsecond

	// RTTTMToCluster is the Cooley <-> PetrelKube round-trip time (0.17 ms).
	RTTTMToCluster = 170 * time.Microsecond

	// ClusterInternalRTT is the pod <-> pod round-trip within PetrelKube
	// (40GbE, same switch fabric). Not reported by the paper; set below
	// the TM<->cluster RTT. It matters only for Clipper, whose query
	// frontend forwards requests to model containers in-cluster.
	ClusterInternalRTT = 120 * time.Microsecond

	// LinkBandwidth approximates the 40GbE interconnect (§V-A) in
	// bytes/second. Input transfer for image servables is charged
	// against this (the paper: "higher overheads associated with
	// Inception and CIFAR-10 are due to their need to transfer
	// substantial input data").
	LinkBandwidth = 40e9 / 8 // 40 Gb/s in B/s

	// WANBandwidth is the effective EC2 <-> Argonne throughput. The
	// paper does not report it; 1 Gb/s is a typical single-stream WAN
	// figure and only shifts request time for large inputs.
	WANBandwidth = 1e9 / 8
)

// Runtime factors, calibrated from Fig. 8's C++-vs-Python contrast.
//
// TensorFlow Serving's core is C++ and "outperforms Python-based
// systems" (§V-B5). Our NN engine plays the role of the C++ runtime at
// native Go speed; Python-hosted paths (Parsl/IPP workers, SageMaker
// Flask, Clipper model containers) multiply compute by PythonCallFactor
// and add PythonCallOverhead per call.
const (
	// PythonCallFactor slows model math executed inside the simulated
	// CPython bridge. Fig. 8 shows Python-based serving ~2-3x slower
	// than tensorflow_model_server on the same model.
	PythonCallFactor = 2.5

	// PythonCallOverhead is the fixed cost of entering the interpreter,
	// deserializing arguments and boxing results for one call.
	PythonCallOverhead = 250 * time.Microsecond

	// PythonImportCost is the one-time interpreter start + import cost
	// paid when a servable container cold-starts (never per request).
	PythonImportCost = 750 * time.Millisecond

	// FlaskRequestOverhead is the per-request WSGI routing/parse cost of
	// the SageMaker Flask inference app, beyond generic HTTP handling.
	// Calibrated from the Fig. 8 SageMaker-Flask vs TFS-REST gap.
	FlaskRequestOverhead = 1500 * time.Microsecond
)

// Dispatch and deployment costs.
const (
	// DispatchOverhead is the per-task cost of the Parsl/IPP dispatcher
	// on the Task Manager: route selection, serialization into the IPP
	// channel, completion bookkeeping. It is the mechanism behind
	// Fig. 7's throughput saturation ("task dispatch activities
	// eventually come to dominate execution time").
	DispatchOverhead = 300 * time.Microsecond

	// ContainerStartLatency is the docker-pull-and-start cost charged
	// when a container instance launches (deployment time only).
	ContainerStartLatency = 400 * time.Millisecond

	// PodStartLatency is the additional Kubernetes pod scheduling +
	// kubelet sync latency per pod (deployment time only).
	PodStartLatency = 150 * time.Millisecond

	// ClipperFrontendOverhead is Clipper's query-frontend cost per
	// request (queue management, container RPC framing). Clipper is a
	// compiled frontend; keep it small.
	ClipperFrontendOverhead = 200 * time.Microsecond
)

// Scale controls the simulated time dilation. All injected *latency*
// constants above are divided by Scale at the points they are applied,
// letting tests run with compressed time (Scale > 1) while benchmarks use
// real constants (Scale == 1). Link serialization time (size/bandwidth)
// is an injected latency too, so emulated bandwidths are multiplied by
// Scale (BW); at Scale = +Inf every emulated link is zero-cost, and
// netsim writes such links inline with no delay machinery at all.
// Compute costs are never scaled — they are real work.
//
// Scale is set once at process start (test main / harness flag) and read
// thereafter; it is intentionally a plain package variable, not atomic.
var Scale = 1.0

// D scales an injected latency constant by the global Scale factor.
func D(d time.Duration) time.Duration {
	if Scale == 1.0 {
		return d
	}
	return time.Duration(float64(d) / Scale)
}

// BW scales an injected link bandwidth (bytes/s) by the global Scale
// factor, so that serialization time, size/BW, compresses exactly like
// D compresses a delay. It returns 0 — read by the link shapers as
// "unlimited" — at Scale = +Inf.
func BW(bw float64) float64 {
	switch {
	case Scale == 1.0:
		return bw
	case math.IsInf(Scale, 1):
		return 0
	}
	return bw * Scale
}
