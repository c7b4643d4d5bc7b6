package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"meshgnn/internal/comm"
	"meshgnn/internal/gnn"
	"meshgnn/internal/nn"
	"meshgnn/internal/perfmodel"
	"meshgnn/internal/tensor"
)

const (
	nmpReps  = 6   // standalone NMP layer forward/backward pairs
	haloReps = 50  // standalone halo exchanges
	gemmTime = 0.3 // seconds of standalone GEMM
)

// profile is the traced run. With the workload's mesh, model and fabric
// it calls into each layer's public functions with a span around every
// call: the set-up layers, a training step piece by piece, a standalone
// NMP layer, halo exchange and GEMM, the inference engine, and the server
// under the open-loop ladder. Spans stay in memory and are written out
// once at the end.
func profile(sp *spec, seed int64, seconds float64, outDir string) (*outcome, error) {
	out := newOutcome()
	rec := newRecorder()
	probe, err := buildWorld(sp, ranks, nil, -1)
	if err != nil {
		return nil, err
	}
	in := makeInputs(sp, probe, seed)
	ref, err := makeRefs(sp, probe, in)
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	order := stepOrder(seed, 4096)

	root := rec.start("setup", -1, -1)
	w, err := buildWorld(sp, ranks, rec, root)
	rec.stop(root)
	if err != nil {
		return nil, err
	}
	if !sameGraphs(w, probe) {
		return nil, fmt.Errorf("graph build is not deterministic")
	}

	var p rankProfile
	err = runRanks(sp.kind, ranks, func(c *comm.Comm) error {
		r := c.Rank()
		var rr *recorder
		var pp *rankProfile
		if r == 0 {
			rr, pp = rec, &p
		} else {
			pp = &rankProfile{}
		}
		return profileRank(sp, w, in, order, c, rr, pp)
	})
	if err != nil {
		return nil, err
	}
	out.attempted += int64(len(p.untraced))
	for k := range p.untraced {
		if p.untraced[k] != p.traced[k] {
			out.failed++
			out.note("step %d: Trainer.Step loss %v, piecewise loss %v", k, p.untraced[k], p.traced[k])
		}
	}

	// Serve the freshly initialised model and send the traced ladder.
	model, err := gnn.NewModel(sp.cfg)
	if err != nil {
		return nil, err
	}
	cl := &client{in: in, ref: ref}
	if cl.srv, err = startServer(sp, w, model, rec, -1); err != nil {
		return nil, err
	}
	defer cl.srv.Close()
	id := rec.start("serve.first_predict", -1, -1)
	err = cl.issue(arrival{Snap: 0})
	rec.stop(id)
	out.attempted++
	if err != nil {
		out.failed++
		out.note("first served answer: %v", err)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x10ad))
	var rungs []*rungResult
	var next int64
	for i := range sp.ladder {
		arr := schedule(rng, sp.ladder[i], rungDur(sp, i, seconds), snapshots, sp.rolloutFrac)
		base := next
		next += int64(len(arr))
		r := runRung(sp.ladder[i], arr, func(j int, a arrival) error {
			id := rec.start("serve.request", -1, base+int64(j))
			defer rec.stop(id)
			return cl.issue(a)
		})
		out.account(rungName(i), r)
		rungs = append(rungs, r)
		// low and high always run; the ladder climbs past high only
		// while rungs meet the limit.
		if ok, _ := r.verdict(sp.lim, 4*sp.maxBatch); !ok && i >= 1 {
			break
		}
	}

	spans := rec.closed()
	path, err := rec.write(filepath.Join(outDir, "trace"), fmt.Sprintf("%s-seed%d.json", sp.name, seed))
	if err != nil {
		return nil, err
	}
	out.report["spans"] = path
	return out, p.metrics(out, sp, w, spans, rungs)
}

// rankProfile is what one rank's part of the profile measured outside
// the spans: losses, per-step communication counters and untraced step
// times.
type rankProfile struct {
	untraced, traced []float64 // losses of Trainer.Step and of the piecewise step
	untracedMs       []float64 // Trainer.Step times, first (cold) step excluded
	halo, exposed    []float64 // per traced step, ms
	msgs, bytes, ars []float64 // per traced step
	msgs1, bytes1    []float64 // per PredictBatch at B=1
	msgs8, bytes8    []float64 // per PredictBatch at B=8
	nodes, edges     int
}

type statsDelta struct{ before comm.Stats }

func (s *statsDelta) mark(c *comm.Comm) { s.before = c.Stats }

func (s *statsDelta) since(c *comm.Comm) (haloMs, exposedMs, msgs, bytes, ars float64) {
	a, b := c.Stats, s.before
	return (a.HaloSeconds - b.HaloSeconds) * 1e3, (a.HaloExposedSeconds - b.HaloExposedSeconds) * 1e3,
		float64(a.MessagesSent - b.MessagesSent), float64(8 * (a.FloatsSent - b.FloatsSent)), float64(a.AllReduces - b.AllReduces)
}

// profileRank is one rank's part of the profile. Every rank makes the
// same collective calls; only rank 0 records spans (rec is nil elsewhere).
func profileRank(sp *spec, w *world, in *inputs, order []int, c *comm.Comm, rec *recorder, p *rankProfile) error {
	r := c.Rank()
	rc, err := gnn.NewRankContext(c, w.box, w.locals[r], mode)
	if err != nil {
		return err
	}
	p.nodes, p.edges = rc.Graph.NumLocal(), rc.Graph.NumEdges()
	sample := func(k int) (x, y *tensor.Matrix) {
		s := order[k%len(order)]
		return in.x[s][r], in.y[s][r]
	}

	// Each step runs twice on two models from the same initialisation:
	// once as Trainer.Step, untraced, and once piece by piece with a span
	// around each public call. Alternating the two keeps drift in the
	// host's speed out of their comparison.
	id := rec.start("gnn.model_init", -1, -1)
	mA, err := gnn.NewModel(sp.cfg)
	rec.stop(id)
	if err != nil {
		return err
	}
	tr := gnn.NewTrainer(mA, newOpt())
	mB, err := gnn.NewModel(sp.cfg)
	if err != nil {
		return err
	}
	opt := newOpt()
	var loss gnn.ConsistentMSE
	var grads []float64
	var sd statsDelta
	for k := 0; k <= sp.profileSteps; k++ {
		x, y := sample(k)
		if k == 0 {
			id = rec.start("gnn.first_step", -1, -1)
		}
		t := time.Now()
		p.untraced = append(p.untraced, tr.Step(rc, x, y))
		if k == 0 {
			rec.stop(id)
		} else {
			p.untracedMs = append(p.untracedMs, ms(time.Since(t)))
		}

		sd.mark(c)
		step := rec.start("gnn.step", -1, -1)
		mB.ZeroGrads()
		id := rec.start("gnn.forward", step, -1)
		out := mB.Forward(rc, x)
		rec.stop(id)
		id = rec.start("gnn.loss", step, -1)
		l := loss.Forward(rc, out, y)
		rec.stop(id)
		id = rec.start("gnn.backward", step, -1)
		mB.Backward(loss.Backward())
		rec.stop(id)
		id = rec.start("nn.allreduce", step, -1)
		grads = nn.AllReduceGradients(c, mB.Params(), grads)
		rec.stop(id)
		id = rec.start("nn.optimizer", step, -1)
		opt.Step(mB.Params())
		rec.stop(id)
		rec.stop(step)
		p.traced = append(p.traced, l)
		if k > 0 {
			h, e, m, b, a := sd.since(c)
			p.halo, p.exposed = append(p.halo, h), append(p.exposed, e)
			p.msgs, p.bytes, p.ars = append(p.msgs, m), append(p.bytes, b), append(p.ars, a)
		}
	}

	// One standalone NMP layer on this rank's graph.
	h := sp.cfg.HiddenDim
	rng := rand.New(rand.NewSource(int64(sp.cfg.Seed)))
	layer := gnn.NewNMPLayer("perfbench", h, sp.cfg.MLPHiddenLayers, rng)
	arena := tensor.NewArena()
	layer.SetArena(arena)
	hx, he := randMatrix(rng, p.nodes, h), randMatrix(rng, p.edges, h)
	dx, de := randMatrix(rng, p.nodes, h), randMatrix(rng, p.edges, h)
	for k := 0; k <= nmpReps; k++ {
		arena.Reset()
		id := rec.start("gnn.nmp_fwd", -1, -1)
		layer.Forward(rc, hx, he)
		rec.stop(id)
		id = rec.start("gnn.nmp_bwd", -1, -1)
		layer.Backward(dx, de)
		rec.stop(id)
	}

	// One halo exchange of an N×H matrix.
	halo := tensor.New(rc.Graph.NumHalo(), h)
	for k := 0; k <= haloReps; k++ {
		id := rec.start("comm.halo_exchange", -1, -1)
		rc.Ex.Forward(c, hx, halo)
		rec.stop(id)
	}

	// GEMM at the edge-MLP input shape, E×3H · 3H×H, on rank 0 alone.
	if r == 0 {
		a, b, dst := randMatrix(rng, p.edges, 3*h), randMatrix(rng, 3*h, h), tensor.New(p.edges, h)
		tensor.MatMul(dst, a, b)
		for t0 := time.Now(); since(t0) < gemmTime; {
			id := rec.start("tensor.matmul", -1, -1)
			tensor.MatMul(dst, a, b)
			rec.stop(id)
		}
	}
	c.Barrier()

	// The inference engine at B=1 and B=8, and a rollout.
	eng, err := gnn.NewInference(mA)
	if err != nil {
		return err
	}
	x1, _ := sample(0)
	xs1 := []*tensor.Matrix{x1}
	var xs8 []*tensor.Matrix
	for k := 0; k < 8; k++ {
		x, _ := sample(k)
		xs8 = append(xs8, x)
	}
	eng.PredictBatch(rc, xs1)
	eng.PredictBatch(rc, xs8)
	for k := 0; k < 3*sp.profileSteps; k++ {
		sd.mark(c)
		id := rec.start("gnn.predict.b1", -1, -1)
		eng.PredictBatch(rc, xs1)
		rec.stop(id)
		_, _, m, b, _ := sd.since(c)
		p.msgs1, p.bytes1 = append(p.msgs1, m), append(p.bytes1, b)
	}
	for k := 0; k < sp.profileSteps; k++ {
		sd.mark(c)
		id := rec.start("gnn.predict.b8", -1, -1)
		eng.PredictBatch(rc, xs8)
		rec.stop(id)
		_, _, m, b, _ := sd.since(c)
		p.msgs8, p.bytes8 = append(p.msgs8, m), append(p.bytes8, b)
	}
	for k := 0; k < 2; k++ {
		id := rec.start("gnn.rollout", -1, -1)
		eng.Rollout(rc, x1, rolloutLen)
		rec.stop(id)
	}
	return nil
}

func randMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// metrics turns the spans and rank 0's counters into the per-layer
// metrics. Repeated calls report the median of the warm calls.
func (p *rankProfile) metrics(out *outcome, sp *spec, w *world, spans []span, rungs []*rungResult) error {
	warm := func(name string) float64 {
		xs := byName(spans, name)
		if len(xs) > 1 {
			xs = xs[1:]
		}
		return median(xs)
	}
	first := func(name string) float64 { return byName(spans, name)[0] }
	for _, n := range []string{"mesh.build", "partition.build", "graph.build", "graph.validate", "gnn.model_init", "gnn.checkpoint", "serve.start"} {
		out.setMetric(n+"_ms", first(n))
	}
	if sp.name == "train" {
		out.setMetric("gnn.first_call_ms", first("gnn.first_step"))
	} else {
		out.setMetric("gnn.first_call_ms", first("serve.first_predict"))
	}

	step := warm("gnn.step")
	out.setMetric("gnn.step_ms", step)
	self := selfTimes(spans)
	var selfMs []float64
	for _, s := range spans {
		if s.Name == "gnn.step" {
			selfMs = append(selfMs, ms(self[s.ID]))
		}
	}
	out.setMetric("gnn.step_self_ms", median(selfMs[1:]))
	for _, n := range []string{"gnn.forward", "gnn.loss", "gnn.backward", "nn.allreduce", "nn.optimizer", "gnn.nmp_fwd", "gnn.nmp_bwd"} {
		out.setMetric(n+"_ms", warm(n))
	}
	out.setMetric("trace.overhead_frac", step/median(p.untracedMs)-1)

	out.setMetric("comm.halo_ms", median(p.halo))
	out.setMetric("comm.halo_exposed_ms", median(p.exposed))
	out.setMetric("comm.msgs_per_step", median(p.msgs))
	out.setMetric("comm.bytes_per_step", median(p.bytes))
	out.setMetric("comm.allreduces_per_step", median(p.ars))
	out.setMetric("comm.halo_us", warm("comm.halo_exchange")*1e3)
	out.setMetric("comm.msgs_per_predict.b1", median(p.msgs1))
	out.setMetric("comm.bytes_per_predict.b1", median(p.bytes1))
	out.setMetric("comm.msgs_per_predict.b8", median(p.msgs8))
	out.setMetric("comm.bytes_per_predict.b8", median(p.bytes8))

	h := float64(sp.cfg.HiddenDim)
	gemm := 2 * float64(p.edges) * 3 * h * h / (warm("tensor.matmul") / 1e3) / 1e9
	train := perfmodel.ModelFlops(sp.cfg, int64(p.nodes), int64(p.edges)) / (step / 1e3) / 1e9
	out.setMetric("tensor.gemm_gflops", gemm)
	out.setMetric("gnn.train_gflops", train)
	out.setMetric("gnn.train_peak_frac", train/gemm)

	b1 := warm("gnn.predict.b1")
	out.setMetric("gnn.predict_ms.b1", b1)
	out.setMetric("gnn.predict_ms.b8", warm("gnn.predict.b8"))
	out.setMetric("gnn.rollout_step_ms", warm("gnn.rollout")/rolloutLen)

	low, ok := rungs[0].latencies(false).quantile(0.5)
	if !ok {
		return fmt.Errorf("low rung: %d Predicts are too few for a median", len(rungs[0].latencies(false)))
	}
	out.setMetric("serve.overhead_ms", low-b1)
	var lag []float64
	backlog := 0
	var reps []map[string]any
	var best *rungResult
	for i, r := range rungs {
		// Generator health is judged on low and high, below saturation;
		// past it the backlog grows by design.
		if i < 2 {
			lag = append(lag, r.Lag...)
			backlog = max(backlog, r.BacklogMax)
		}
		ok, why := r.verdict(sp.lim, 4*sp.maxBatch)
		reps = append(reps, rungReport(rungName(i), r, ok, why))
		if ok {
			best = r
		}
	}
	out.report["limit"] = map[string]float64{"quantile": sp.lim.Q, "ms": sp.lim.Ms}
	if best != nil {
		out.report["max_rate_rps"] = map[string]float64{"offered": best.Rate, "achieved": best.achieved()}
	} else {
		out.report["max_rate_note"] = "no rung met the limit"
	}
	out.setMetric("loadgen.lag_max_ms", newDist(lag)[len(lag)-1])
	out.setMetric("loadgen.backlog_max", float64(backlog))
	out.report["rungs"] = reps
	out.report["graph"] = map[string]int{"rank0_nodes": p.nodes, "rank0_edges": p.edges, "global_nodes": int(w.box.NumNodes())}
	return nil
}
