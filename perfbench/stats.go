package main

import (
	"math"
	"sort"
	"time"
)

// opKind names the operation classes the end-to-end metrics are split
// by: inference requests (single runs, batches, pipelines), repository
// writes (metadata updates) and searches.
type opKind int

const (
	opRun opKind = iota
	opWrite
	opSearch
	numOpKinds
)

// sample is one attempted operation: its latency (from when it was due
// in an open loop, from when it was sent in a closed loop) and whether
// it succeeded with a correct output.
type sample struct {
	kind opKind
	// typ is the request type within the kind (science-mix: single
	// run, batch, pipeline).
	typ int
	lat time.Duration
	ok  bool
	// at is when the operation completed, from the window start
	// (closed loops).
	at time.Duration
}

// failed is the latency a failed operation counts as: it misses every
// latency limit and sorts above every completed operation.
const failed = time.Duration(math.MaxInt64)

// latencies returns the sorted latencies of one kind, failures counted
// as misses (the failed sentinel), and the number of samples.
func latencies(samples []sample, kind opKind) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if s.kind != kind {
			continue
		}
		if s.ok {
			out = append(out, s.lat)
		} else {
			out = append(out, failed)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of sorted
// values: the smallest value at or above which a share q of the values
// lie. A failure in that position makes the percentile a miss (failed).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// beyond counts the samples strictly above the q-quantile's rank — the
// guide for whether a percentile is supported (at least ten beyond).
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// goodput counts the operations of a kind that completed correctly
// within limit, per second of window.
func goodput(samples []sample, kind opKind, limit, window time.Duration) float64 {
	n := 0
	for _, s := range samples {
		if s.kind == kind && s.ok && s.lat <= limit {
			n++
		}
	}
	return float64(n) / window.Seconds()
}

// sliceCount is how many equal time slices a closed-loop window is cut
// into for its run metrics (see sliced).
const sliceCount = 10

// sliced cuts a window of length span into slices by completion time,
// computes f over each slice's samples and length, and returns the
// median. Stalls of the shared machine come and go within a run; the
// median of the slices keeps a few stalled seconds from moving a run's
// figure, while a change that slows every slice still moves it.
func sliced(samples []sample, span time.Duration, f func([]sample, time.Duration) float64) float64 {
	width := span / sliceCount
	parts := make([][]sample, sliceCount)
	for _, s := range samples {
		i := min(int(s.at/width), sliceCount-1)
		parts[i] = append(parts[i], s)
	}
	vals := make([]float64, sliceCount)
	for i, p := range parts {
		vals[i] = f(p, width)
	}
	return median(vals)
}

// completed counts the successful operations among samples.
func completed(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.ok {
			n++
		}
	}
	return n
}

// tally counts attempted and failed operations over every kind.
func tally(samples []sample) (attempted, failures int) {
	for _, s := range samples {
		if !s.ok {
			failures++
		}
	}
	return len(samples), failures
}

// missTimeout is what a miss (failed) reads as in a reported latency:
// the request timeout, the longest a caller could have waited.
const missTimeout = time.Minute

// ms renders a duration as fractional milliseconds.
func ms(d time.Duration) float64 {
	if d == failed {
		d = missTimeout
	}
	return float64(d) / float64(time.Millisecond)
}

// us renders a duration as fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of a float sample (0 when empty); the input is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of an unsorted float sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// maxOf is the largest value of a float sample (0 when empty).
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}
