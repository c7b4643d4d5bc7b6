package main

import (
	"math"
	"sort"
)

// minBeyond is the sample-count rule for percentiles: a percentile is
// reported only when at least this many samples lie above it, so a tail
// figure never rests on one or two outliers.
const minBeyond = 10

// dist is a sorted sample of one timing, in the unit it was recorded in.
type dist []float64

// newDist copies and sorts xs.
func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// quantile returns the nearest-rank q-quantile and whether the sample
// count allows it: at least minBeyond samples must lie beyond the rank.
func (d dist) quantile(q float64) (float64, bool) {
	n := len(d)
	if n == 0 || q < 0 || q > 1 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return d[rank-1], n-rank >= minBeyond
}

// maxBlocks bounds how many blocks blockQuantile splits a series into.
const maxBlocks = 5

// blockQuantile splits xs, in the order they were measured, into the
// largest number of consecutive blocks (at most maxBlocks) in each of
// which the sample-count rule allows the q-quantile, and returns the
// median of the blocks' quantiles, and the blocks' quantiles. A burst of host noise that spoils one
// block of a run then does not move the run's figure. ok is false when
// the whole series is too short for the quantile.
func blockQuantile(xs []float64, q float64) (v float64, blocks []float64, ok bool) {
	for k := maxBlocks; k >= 1; k-- {
		var vs []float64
		for b := 0; b < k; b++ {
			bv, bok := newDist(xs[b*len(xs)/k : (b+1)*len(xs)/k]).quantile(q)
			if !bok {
				break
			}
			vs = append(vs, bv)
		}
		if len(vs) == k {
			return median(vs), vs, true
		}
	}
	return math.NaN(), nil, false
}

// median returns the middle of the sample (mean of the two middle values
// for an even count) with no sample-count rule: it is used for repeated
// measurements of one quantity, not for a latency distribution.
func median(xs []float64) float64 {
	d := newDist(xs)
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// pct is one reported percentile with the sample count it came from.
type pct struct {
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// percentiles returns the standard percentiles the rule allows for d,
// keyed "p50", "p90", "p99", plus the maximum.
func percentiles(d dist) map[string]pct {
	out := map[string]pct{}
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
		if v, ok := d.quantile(p.q); ok {
			out[p.name] = pct{v, len(d)}
		}
	}
	if len(d) > 0 {
		out["max"] = pct{d[len(d)-1], len(d)}
	}
	return out
}
