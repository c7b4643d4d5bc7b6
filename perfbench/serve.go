package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"meshgnn"
	"meshgnn/internal/gnn"
)

// errWrong marks a served answer that differs from its reference.
var errWrong = errors.New("answer differs from its reference")

// startServer runs the serving half of the set-up on a built world: a
// SaveModel→LoadModel round trip of model and ServeWith on the workload's
// fabric, with spans when rec is non-nil.
func startServer(sp *spec, w *world, model *gnn.Model, rec *recorder, parent int) (*meshgnn.Server, error) {
	id := rec.start("gnn.checkpoint", parent, -1)
	var buf bytes.Buffer
	if err := gnn.SaveModel(&buf, model); err != nil {
		return nil, err
	}
	loaded, err := gnn.LoadModel(&buf)
	rec.stop(id)
	if err != nil {
		return nil, err
	}
	sys := &meshgnn.System{Mesh: w.box, Ranks: len(w.locals), Locals: w.locals}
	id = rec.start("serve.start", parent, -1)
	srv, err := sys.ServeWith(sp.kind, mode, loaded, meshgnn.ServeOptions{MaxBatch: sp.maxBatch})
	rec.stop(id)
	return srv, err
}

// client sends generated requests and checks each answer bitwise.
type client struct {
	srv *meshgnn.Server
	in  *inputs
	ref *refs
}

func (cl *client) issue(a arrival) error {
	x := cl.in.x[a.Snap]
	if a.Rollout {
		trajs, err := cl.srv.Rollout(x, rolloutLen)
		if err != nil {
			return err
		}
		for r, traj := range trajs {
			want := cl.ref.rollout[a.Snap][r]
			if len(traj) != len(want) {
				return errWrong
			}
			for s := range traj {
				if !traj[s].Equal(want[s]) {
					return errWrong
				}
			}
		}
		return nil
	}
	ys, err := cl.srv.Predict(x)
	if err != nil {
		return err
	}
	for r, y := range ys {
		if !y.Equal(cl.ref.predict[a.Snap][r]) {
			return errWrong
		}
	}
	return nil
}

// account adds a rung's requests to the run's counts.
func (o *outcome) account(name string, r *rungResult) {
	attempted, _, failed := r.counts()
	o.attempted += int64(attempted)
	o.failed += int64(failed)
	for i, err := range r.Err {
		if errors.Is(err, errWrong) {
			o.note("%s: request %d (snapshot %d, rollout %v): %v", name, i, r.Arrivals[i].Snap, r.Arrivals[i].Rollout, err)
		}
	}
}

// rungReport summarises a rung for the report line, each percentile with
// its sample count.
func rungReport(name string, r *rungResult, ok bool, why string) map[string]any {
	attempted, succeeded, failed := r.counts()
	rep := map[string]any{
		"rung": name, "offered_per_s": r.Rate, "achieved_per_s": r.achieved(),
		"attempted": attempted, "succeeded": succeeded, "failed": failed,
		"predict_ms": percentiles(r.latencies(false)), "lag_ms": percentiles(newDist(r.Lag)),
		"backlog_max": r.BacklogMax, "backlog_end": r.BacklogEnd,
		"meets_limit": ok,
	}
	if d := r.latencies(true); len(d) > 0 {
		rep["rollout_ms"] = percentiles(d)
	}
	if why != "" {
		rep["reason"] = why
	}
	return rep
}

func rungName(i int) string {
	switch i {
	case 0:
		return "low"
	case 1:
		return "high"
	}
	return fmt.Sprintf("rung%d", i)
}

func rungDur(sp *spec, i int, seconds float64) time.Duration {
	return time.Duration(sp.share[i] * seconds * float64(time.Second))
}

// measureServe is the untraced serving workload: sp.setups set-ups, each
// up to the first correct answer, then on the last server a closed-loop
// warm-up and the cycles the gated figures come from.
func measureServe(sp *spec, seed int64, seconds float64) (*outcome, error) {
	out := newOutcome()
	probe, err := buildWorld(sp, ranks, nil, -1)
	if err != nil {
		return nil, err
	}
	in := makeInputs(sp, probe, seed)
	ref, err := makeRefs(sp, probe, in)
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	cl := &client{in: in, ref: ref}
	var setups []float64
	for rep := 0; rep < sp.setups; rep++ {
		if cl.srv != nil {
			if err := cl.srv.Close(); err != nil {
				return nil, err
			}
		}
		// Each set-up starts from a collected heap, as in a fresh process,
		// not with the garbage of the set-ups before it.
		runtime.GC()
		t0 := time.Now()
		w, err := buildWorld(sp, ranks, nil, -1)
		if err != nil {
			return nil, err
		}
		if !sameGraphs(w, probe) {
			return nil, fmt.Errorf("graph build is not deterministic")
		}
		model, err := gnn.NewModel(sp.cfg)
		if err != nil {
			return nil, err
		}
		if cl.srv, err = startServer(sp, w, model, nil, -1); err != nil {
			return nil, err
		}
		err = cl.issue(arrival{Snap: rep % snapshots})
		setups = append(setups, since(t0))
		out.attempted++
		if err != nil {
			out.failed++
			if !errors.Is(err, errWrong) {
				return nil, fmt.Errorf("first answer: %w", err)
			}
			out.note("set-up %d: first answer: %v", rep, err)
		}
	}
	defer cl.srv.Close()
	out.setMetric("setup_s", median(setups))
	out.report["setup_reps_s"] = setups

	rng := rand.New(rand.NewSource(seed ^ 0x10ad))
	share := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	// The warm-up runs as a saturation slice, so that every batch size
	// and the rollouts have been through the engine once before timing.
	out.account("warm-up", runLoop(rng, 2*sp.maxBatch, share(warmupShare), snapshots, sp.rolloutFrac, cl.issue))

	// Latency slices send Predicts one at a time, so each latency is the
	// server's service time with no queueing behind other requests.
	// Saturation slices send the workload's mix with two full batches
	// outstanding, so one waits queued while the other runs: the server
	// never waits for work and takes a full batch every time.
	var p50s, rates, all []float64
	var ns []int
	var rollouts []float64
	for k := 0; k < cycles; k++ {
		lat := runLoop(rng, 1, share(sliceShare), snapshots, 0, cl.issue)
		out.account(fmt.Sprintf("latency %d", k), lat)
		xs := lat.series(false)
		p50, ok := newDist(xs).quantile(0.5)
		if !ok {
			return nil, fmt.Errorf("latency slice %d: %d Predicts are too few for a median", k, len(xs))
		}
		p50s = append(p50s, p50)
		ns = append(ns, len(xs))
		all = append(all, xs...)
		sat := runLoop(rng, 2*sp.maxBatch, share(sliceShare), snapshots, sp.rolloutFrac, cl.issue)
		out.account(fmt.Sprintf("saturation %d", k), sat)
		rates = append(rates, sat.achieved())
		rollouts = append(rollouts, sat.series(true)...)
	}
	out.setMetric("lat_p50_ms", median(p50s))
	out.setMetric("throughput_per_s", median(rates))
	out.report["lat_p50_ms_cycles"] = map[string]any{"values": p50s, "n": ns}
	out.report["throughput_per_s_cycles"] = rates
	out.report["latency_slices_predict_ms"] = percentiles(newDist(all))
	if len(rollouts) > 0 {
		out.report["saturation_rollout_ms"] = percentiles(newDist(rollouts))
	}
	return out, nil
}
