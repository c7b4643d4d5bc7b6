package main

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

func TestQuantileSampleCountRule(t *testing.T) {
	seq := func(n int) dist {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return newDist(xs)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{20, 0.50, 10, true},    // 10 samples beyond the median
		{19, 0.50, 10, false},   // 9 beyond
		{100, 0.90, 90, true},   // 10 beyond
		{99, 0.90, 90, false},   // 9 beyond
		{20, 0.99, 20, false},   // a p99 from 20 requests is refused
		{1000, 0.99, 990, true}, // 10 beyond
		{999, 0.99, 990, false},
	} {
		got, ok := seq(c.n).quantile(c.q)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("n=%d q=%v: got (%v, %v), want (%v, %v)", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	p := percentiles(seq(150))
	if _, ok := p["p99"]; ok {
		t.Errorf("p99 reported from 150 samples")
	}
	if p["p90"].N != 150 || p["p90"].Value != 135 {
		t.Errorf("p90 of 1..150 = %+v, want 135 with n=150", p["p90"])
	}
	if median([]float64{3, 1, 2, 10}) != 2.5 {
		t.Errorf("median of an even sample is the mean of the middle two")
	}
}

func TestBlockQuantile(t *testing.T) {
	// 500 samples of 1..100 in five blocks; the fourth block is a burst
	// ten times slower. The median of the block medians ignores it.
	var xs []float64
	for b := 0; b < 5; b++ {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if b == 3 {
				v *= 10
			}
			xs = append(xs, v)
		}
	}
	if v, k, ok := blockQuantile(xs, 0.5); !ok || len(k) != 5 || v != 50 {
		t.Errorf("p50 = (%v, blocks %v, %v), want (50, 5 blocks, true)", v, k, ok)
	}
	// p90 needs 100 samples per block: five blocks of 100 allow it.
	if v, k, ok := blockQuantile(xs, 0.9); !ok || len(k) != 5 || v != 90 {
		t.Errorf("p90 = (%v, blocks %v, %v), want (90, 5 blocks, true)", v, k, ok)
	}
	// 250 samples allow only two blocks for p90, and 99 none.
	if _, k, ok := blockQuantile(xs[:250], 0.9); !ok || len(k) != 2 {
		t.Errorf("p90 of 250 samples used %d blocks (ok %v), want 2", len(k), ok)
	}
	if _, _, ok := blockQuantile(xs[:99], 0.9); ok {
		t.Errorf("p90 of 99 samples allowed")
	}
}

func TestScheduleOffersFixedLoad(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		arr := schedule(rand.New(rand.NewSource(seed)), 400, 250*time.Millisecond, 4, 0.5)
		if len(arr) != 100 {
			t.Fatalf("seed %d: %d arrivals, want 100", seed, len(arr))
		}
		for i := 1; i < len(arr); i++ {
			if arr[i].At < arr[i-1].At || arr[i].At >= 250*time.Millisecond {
				t.Fatalf("seed %d: arrival %d at %v is out of order or outside the rung", seed, i, arr[i].At)
			}
		}
	}
	a := schedule(rand.New(rand.NewSource(7)), 400, 250*time.Millisecond, 4, 0.5)
	b := schedule(rand.New(rand.NewSource(7)), 400, 250*time.Millisecond, 4, 0.5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different arrival %d", i)
		}
	}
}

func TestRungAccounting(t *testing.T) {
	arr := schedule(rand.New(rand.NewSource(3)), 2000, 50*time.Millisecond, 4, 0.2)
	errBoom := errors.New("boom")
	r := runRung(2000, arr, func(i int, a arrival) error {
		time.Sleep(time.Millisecond)
		if i%7 == 0 {
			return errBoom
		}
		return nil
	})
	attempted, succeeded, failed := r.counts()
	wantFailed := (len(arr) + 6) / 7
	if attempted != len(arr) || failed != wantFailed || succeeded+failed != attempted {
		t.Fatalf("attempted %d succeeded %d failed %d, want %d = %d + %d",
			attempted, succeeded, failed, len(arr), len(arr)-wantFailed, wantFailed)
	}
	if n := len(r.latencies(false)) + len(r.latencies(true)); n != succeeded {
		t.Errorf("%d latencies for %d successes", n, succeeded)
	}
	for i, l := range r.Lat {
		if l < 1 {
			t.Errorf("request %d: latency %v ms is shorter than its 1 ms of work", i, l)
		}
		if r.Lag[i] < 0 || l < r.Lag[i] {
			t.Errorf("request %d: lag %v ms, latency %v ms; latency counts from the due time", i, r.Lag[i], l)
		}
	}
	if r.BacklogMax < 1 || r.BacklogMax > len(arr) {
		t.Errorf("backlog max %d", r.BacklogMax)
	}
	if ok, why := r.verdict(limit{0.5, 1e6}, 1<<20); ok || why != "failed requests" {
		t.Errorf("a rung with failures met the limit (%v, %q)", ok, why)
	}
}

func TestRungLatencyCountsQueueing(t *testing.T) {
	// Three requests due at once share one worker slot, so two of them
	// wait; latency runs from the due time and must include that wait.
	arr := []arrival{{At: 0}, {At: 0}, {At: 0}}
	slot := make(chan struct{}, 1)
	r := runRung(1, arr, func(i int, a arrival) error {
		slot <- struct{}{}
		time.Sleep(5 * time.Millisecond)
		<-slot
		return nil
	})
	d := newDist(r.Lat)
	if d[0] < 5 || d[1] < 10 || d[2] < 15 {
		t.Fatalf("latencies %v ms: queued requests must count their wait from the due time", d)
	}
	if r.BacklogMax != 3 {
		t.Errorf("backlog max %d, want 3 outstanding", r.BacklogMax)
	}
}

func TestLoopAccounting(t *testing.T) {
	// Two clients, each request 2 ms of work: exactly two are outstanding
	// at a time, every sent request is accounted for, and the achieved
	// rate is about two per 2 ms.
	var outstanding, peak atomic.Int64
	errBoom := errors.New("boom")
	var sent atomic.Int64
	r := runLoop(rand.New(rand.NewSource(5)), 2, 40*time.Millisecond, 4, 0.5, func(a arrival) error {
		peak.Store(max(peak.Load(), outstanding.Add(1)))
		defer outstanding.Add(-1)
		time.Sleep(2 * time.Millisecond)
		if sent.Add(1)%5 == 0 {
			return errBoom
		}
		return nil
	})
	attempted, succeeded, failed := r.counts()
	if int64(attempted) != sent.Load() || failed != int(sent.Load()/5) || succeeded+failed != attempted {
		t.Fatalf("attempted %d succeeded %d failed %d for %d sent", attempted, succeeded, failed, sent.Load())
	}
	if peak.Load() > 2 || r.BacklogMax != 2 {
		t.Errorf("peak outstanding %d, backlog max %d; want 2", peak.Load(), r.BacklogMax)
	}
	for i, l := range r.Lat {
		if l < 2 {
			t.Errorf("request %d: latency %v ms is shorter than its 2 ms of work", i, l)
		}
		if i > 0 && r.Arrivals[i].At < r.Arrivals[i-1].At {
			t.Errorf("request %d sent before request %d", i, i-1)
		}
	}
	if r.Elapsed < 40*time.Millisecond || r.achieved() <= 0 || r.achieved() > 1000 {
		t.Errorf("elapsed %v, achieved %v per s", r.Elapsed, r.achieved())
	}
	a := runLoop(rand.New(rand.NewSource(5)), 2, 0, 4, 0.5, func(arrival) error { return nil })
	if len(a.Arrivals) != 0 {
		t.Errorf("a zero-length phase sent %d requests", len(a.Arrivals))
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "step", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "forward", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "backward", Start: 30, End: 70},   // overlaps forward by 10
		{ID: 3, Parent: 0, Name: "optimizer", Start: 90, End: 120}, // reaches past the parent
		{ID: 4, Parent: 1, Name: "halo", Start: 15, End: 20},
		{ID: 5, Parent: -1, Name: "other", Start: 200, End: 250},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{0: 100 - 60 - 10, 1: 25, 2: 40, 3: 30, 4: 5, 5: 50}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d (%s): self %v, want %v", id, spans[id].Name, self[id], w)
		}
	}
}

func TestRecorderNilAndWrite(t *testing.T) {
	var none *recorder
	none.stop(none.start("x", -1, -1)) // records nothing, does not panic

	r := newRecorder()
	outer := r.start("outer", -1, 7)
	r.stop(r.start("inner", outer, 7))
	r.start("open", -1, -1) // never stopped: not written out
	r.stop(outer)
	got := r.closed()
	if len(got) != 2 || got[1].Parent != outer || got[0].Req != 7 {
		t.Fatalf("closed spans %+v", got)
	}
	if _, err := r.write(t.TempDir(), "spans.json"); err != nil {
		t.Fatal(err)
	}
}
