package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// closedLoop runs clients that each issue their next operation as soon
// as the previous one completes, until the window ends. op receives the
// client index and that client's operation count so far, and appends
// the operation's samples (latencies measured by op itself) to out.
// elapsed runs from the start to the last completion.
func closedLoop(clients int, window time.Duration, op func(client, seq int, out []sample) []sample) (samples []sample, elapsed time.Duration) {
	start := time.Now()
	deadline := start.Add(window)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline); seq++ {
				n := len(per[c])
				per[c] = op(c, seq, per[c])
				at := time.Since(start)
				for i := n; i < len(per[c]); i++ {
					per[c][i].at = at
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, s := range per {
		samples = append(samples, s...)
	}
	return samples, elapsed
}

// arrival is one request of an open-loop schedule: when it is due,
// relative to the window start, which request type it is and the seed
// of its payload.
type arrival struct {
	Due  time.Duration
	Type int
	Key  int64
}

// poissonSchedule lays out an open-loop window of Poisson arrivals at
// rate per second. The count is fixed at rate×window and the arrival
// times are uniform order statistics over the window — a Poisson
// process conditioned on its count — so every seed offers the same
// load and only the spacing varies. Each request type gets its share
// of the count by the weights in mix, in an order shuffled by the seed.
func poissonSchedule(seed int64, rate float64, window time.Duration, mix []float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate*window.Seconds() + 0.5)
	var total float64
	for _, w := range mix {
		total += w
	}
	out := make([]arrival, n)
	for i := range out {
		out[i].Due = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Due < out[j].Due })
	types := make([]int, 0, n)
	var acc float64
	for t, w := range mix {
		acc += w
		for len(types) < int(float64(n)*acc/total+0.5) {
			types = append(types, t)
		}
	}
	rng.Shuffle(len(types), func(i, j int) { types[i], types[j] = types[j], types[i] })
	for i := range out {
		out[i].Type = types[i]
		out[i].Key = rng.Int63()
	}
	return out
}

// openLoop sends every scheduled request at its due time, each from its
// own goroutine (independent users, no cap), and waits for all of them.
// A request's latency runs from when it was due, not from when the
// generator got to send it, so a stalled generator or a backed-up
// system is charged for the wait it imposes. late holds how late each
// send ran; elapsed runs from the window start to the last completion.
func openLoop(sched []arrival, op func(i int, a arrival) sample) (samples []sample, late []time.Duration, elapsed time.Duration) {
	samples = make([]sample, len(sched))
	late = make([]time.Duration, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due)
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			s := op(i, a)
			s.lat = time.Since(due)
			samples[i] = s
		}(i, a, due)
	}
	wg.Wait()
	return samples, late, time.Since(start)
}
