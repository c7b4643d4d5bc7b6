package main

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one scheduled request of an open-loop stream.
type arrival struct {
	At      time.Duration // offset from the rung's start
	Snap    int           // index of the input snapshot sent
	Rollout bool          // a Rollout instead of a Predict
}

// schedule draws the arrivals of one rung: a Poisson stream at rate over
// dur, conditioned on its count round(rate·dur), so every seed offers the
// same load and only the spacing and the inputs vary.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, nsnap int, rolloutFrac float64) []arrival {
	n := int(rate*dur.Seconds() + 0.5)
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * dur.Seconds()
	}
	sort.Float64s(at)
	out := make([]arrival, n)
	for i, t := range at {
		out[i] = arrival{
			At:      time.Duration(t * float64(time.Second)),
			Snap:    rng.Intn(nsnap),
			Rollout: rng.Float64() < rolloutFrac,
		}
	}
	return out
}

// rungResult is the record of one open-loop rung. Every arrival is sent
// exactly once and lands in exactly one of succeeded or failed.
type rungResult struct {
	Rate     float64
	Arrivals []arrival
	// Lat is each request's latency in ms, from the time it was due to be
	// sent (not from when the generator got round to sending it) to its
	// completion. Lag is how late, in ms, the generator sent it.
	Lat, Lag []float64
	Err      []error
	// BacklogMax is the peak number of outstanding requests, BacklogEnd
	// the number when the last arrival was sent.
	BacklogMax, BacklogEnd int
	// Elapsed runs from the rung's start to its last completion.
	Elapsed time.Duration
}

// runRung sends the arrivals open-loop: each one at its scheduled time,
// whether or not earlier requests have completed, and waits for all of
// them. issue performs request i; its error marks the request failed.
// The number of goroutines is bounded by the length of the schedule.
func runRung(rate float64, arrivals []arrival, issue func(i int, a arrival) error) *rungResult {
	n := len(arrivals)
	r := &rungResult{Rate: rate, Arrivals: arrivals, Lat: make([]float64, n), Lag: make([]float64, n), Err: make([]error, n)}
	done := make([]time.Time, n)
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.Lag[i] = ms(time.Since(due))
		// Only this goroutine increments, so it sees every peak.
		if k := int(outstanding.Add(1)); k > r.BacklogMax {
			r.BacklogMax = k
		}
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			err := issue(i, a)
			done[i] = time.Now()
			r.Lat[i] = ms(done[i].Sub(due))
			r.Err[i] = err
			outstanding.Add(-1)
		}(i, a, due)
	}
	r.BacklogEnd = int(outstanding.Load())
	wg.Wait()
	for _, t := range done {
		if d := t.Sub(start); d > r.Elapsed {
			r.Elapsed = d
		}
	}
	return r
}

// runLoop is the closed-loop counterpart of runRung: conc clients each
// send a request, wait for its answer and send the next, so exactly conc
// requests are outstanding until dur has passed; requests in flight then
// still complete and count. Client c draws its requests from a generator
// seeded from rng, so a seed gives every client the same sequence. The
// result lists the requests in the order they were sent; Lat runs from
// send to completion, Lag is zero and Rate is the achieved rate.
func runLoop(rng *rand.Rand, conc int, dur time.Duration, nsnap int, rolloutFrac float64, issue func(a arrival) error) *rungResult {
	type sent struct {
		a   arrival
		lat float64
		err error
		end time.Duration
	}
	seeds := make([]int64, conc)
	for c := range seeds {
		seeds[c] = rng.Int63()
	}
	per := make([][]sent, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range conc {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := rand.New(rand.NewSource(seeds[c]))
			for at := time.Since(start); at < dur; at = time.Since(start) {
				a := arrival{At: at, Snap: g.Intn(nsnap), Rollout: g.Float64() < rolloutFrac}
				err := issue(a)
				end := time.Since(start)
				per[c] = append(per[c], sent{a, ms(end - at), err, end})
			}
		}(c)
	}
	wg.Wait()
	var all []sent
	for _, s := range per {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].a.At < all[j].a.At })
	n := len(all)
	r := &rungResult{Arrivals: make([]arrival, n), Lat: make([]float64, n), Lag: make([]float64, n), Err: make([]error, n), BacklogMax: conc}
	for i, s := range all {
		r.Arrivals[i], r.Lat[i], r.Err[i] = s.a, s.lat, s.err
		r.Elapsed = max(r.Elapsed, s.end)
	}
	r.Rate = r.achieved()
	return r
}

// counts returns (attempted, succeeded, failed).
func (r *rungResult) counts() (attempted, succeeded, failed int) {
	for _, err := range r.Err {
		if err != nil {
			failed++
		}
	}
	return len(r.Arrivals), len(r.Arrivals) - failed, failed
}

// series returns the latencies of the successful Predicts (rollout
// false) or Rollouts (rollout true), in arrival order.
func (r *rungResult) series(rollout bool) []float64 {
	var xs []float64
	for i, a := range r.Arrivals {
		if a.Rollout == rollout && r.Err[i] == nil {
			xs = append(xs, r.Lat[i])
		}
	}
	return xs
}

// latencies is series, sorted.
func (r *rungResult) latencies(rollout bool) dist { return newDist(r.series(rollout)) }

// achieved is the completion rate over the rung, in requests per second.
func (r *rungResult) achieved() float64 {
	_, ok, _ := r.counts()
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(ok) / r.Elapsed.Seconds()
}

// backlogGrows reports a queue that built up over the rung. By Little's
// law a rung that meets the latency limit holds about rate·limit requests
// outstanding; more than that (and more than floor) when the last arrival
// is sent means the queue was still growing.
func (r *rungResult) backlogGrows(lim limit, floor int) bool {
	return r.BacklogEnd > max(floor, int(r.Rate*lim.Ms/1e3))
}

// limit is a latency limit on one percentile of the Predict latencies.
type limit struct {
	Q  float64 // percentile as a fraction, e.g. 0.90
	Ms float64
}

// verdict decides whether the rung meets the limit: no failed request,
// enough Predicts to state the percentile, the percentile within the
// limit, and no growing backlog. reason says why not.
func (r *rungResult) verdict(lim limit, backlogFloor int) (ok bool, reason string) {
	if _, _, failed := r.counts(); failed > 0 {
		return false, "failed requests"
	}
	v, allowed := r.latencies(false).quantile(lim.Q)
	switch {
	case !allowed:
		return false, "too few samples for the limit percentile"
	case v > lim.Ms:
		return false, "latency limit missed"
	case r.backlogGrows(lim, backlogFloor):
		return false, "backlog grows"
	}
	return true, ""
}
