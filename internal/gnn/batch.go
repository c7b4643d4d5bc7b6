package gnn

import (
	"fmt"

	"meshgnn/internal/graph"
	"meshgnn/internal/tensor"
)

// Block-diagonal graph batching: B node snapshots that share one mesh are
// evaluated as a single stacked problem. Node features concatenate
// vertically into a (B·N_local)×F matrix — batch as a leading row-block
// dimension, not a loop — and likewise edge features, aggregates, and
// halo staging. Because every kernel in the forward path is row-wise
// (GEMM dispatch and per-row FMA order depend on the reduction shape
// only; LayerNorm/ELU are per-row maps; the CSR aggregation walks each
// receiver's edges in canonical order regardless of which stacked block
// the row lives in), sample b of the stacked result is bitwise-identical
// to a Predict of sample b. Batching buys amortization — one GEMM sweep
// per layer, one kernel-dispatch round, one halo frame per neighbor
// carrying all B samples (comm.Exchanger.ForwardBatched) — and changes no
// bit. Predict is the same stacked kernel at B = 1.

// inferSlot is one binding of the stacked engine to a (graph, B, width)
// tuple: its own arena recording (the record/replay sequence depends on
// B), the persistent stacked input, the double-buffered stacked output,
// and the static-edge encoding.
type inferSlot struct {
	arena tensor.Arena
	// xb is the persistent stacked input the B > 1 samples are copied
	// into; a single sample is read in place.
	xb *tensor.Matrix
	// outs double-buffers the stacked prediction; hdrs are the per-sample
	// row-block headers into each buffer (returned to callers, so a
	// sample's result obeys the same valid-through-one-subsequent-call
	// contract as Predict).
	outs   [2]*tensor.Matrix
	hdrs   [2][]*tensor.Matrix
	outIdx int
	// staticHe is the static-edge encoding (EdgeFeatures4): the compile's
	// shared per-graph encoding at B = 1, a B-tiled copy of it at B > 1 so
	// the stacked residual add sees per-sample rows.
	staticHe *tensor.Matrix

	lastGraph *graph.Local
	lastB     int
	lastCols  int
}

// PredictBatch evaluates B snapshots of this rank's sub-graph in one
// fused sweep. Each xs[i] is a NumLocal×InputNodeFeatures snapshot; the
// returned slice holds one NumLocal×OutputNodeFeatures prediction per
// sample, bitwise-identical to e.Predict(rc, xs[i]) run on its own. The
// returned matrices are engine-owned row-blocks of one stacked buffer and
// stay valid through ONE subsequent call of the same batch class: B > 1
// results through one further B > 1 PredictBatch/RolloutBatch step, a
// B = 1 result through one further single-sample call (Predict or
// PredictBatch with one sample). All ranks must call collectively with
// the same batch size.
func (e *Inference) PredictBatch(rc *RankContext, xs []*tensor.Matrix) []*tensor.Matrix {
	batch := len(xs)
	if batch == 0 {
		panic("gnn: PredictBatch with an empty batch")
	}
	for _, x := range xs {
		if x.Rows != rc.Graph.NumLocal() || x.Cols != e.Config.InputNodeFeatures {
			panic(fmt.Sprintf("gnn: batched inference input %dx%d, want %dx%d",
				x.Rows, x.Cols, rc.Graph.NumLocal(), e.Config.InputNodeFeatures))
		}
	}
	if e.f32 != nil || e.Config.Attention {
		// No stacked twin (the float32 engine, attention processors): run
		// Predict per sample, copying each result into a stacked output
		// so the buffer-lifetime contract still holds.
		s := &e.many
		out := s.ensureOut(batch*xs[0].Rows, e.Config.OutputNodeFeatures, batch)
		per := out.Rows / batch
		for i, x := range xs {
			y := e.Predict(rc, x)
			copy(out.Data[i*per*out.Cols:(i+1)*per*out.Cols], y.Data)
		}
		return s.hdrs[s.outIdx]
	}
	s := e.bind(rc, batch, xs[0].Cols)
	x := xs[0]
	if batch > 1 {
		n := x.Rows * x.Cols
		for i, xi := range xs {
			copy(s.xb.Data[i*n:(i+1)*n], xi.Data)
		}
		x = s.xb
	}
	e.predictStacked(rc, s, x, batch)
	return s.hdrs[s.outIdx]
}

// RolloutBatch applies the engine autoregressively to B initial states,
// returning one trajectory per sample (steps+1 independent matrices each,
// including the initial state) — per sample bitwise-equal to e.Rollout.
// All ranks must call collectively.
func (e *Inference) RolloutBatch(rc *RankContext, x0s []*tensor.Matrix, steps int) [][]*tensor.Matrix {
	if e.Config.InputNodeFeatures != e.Config.OutputNodeFeatures {
		panic(fmt.Sprintf("gnn: rollout needs matching widths, have %d -> %d",
			e.Config.InputNodeFeatures, e.Config.OutputNodeFeatures))
	}
	batch := len(x0s)
	if batch == 0 {
		panic("gnn: RolloutBatch with an empty batch")
	}
	trajs := make([][]*tensor.Matrix, batch)
	cur := make([]*tensor.Matrix, batch)
	for i, x0 := range x0s {
		trajs[i] = make([]*tensor.Matrix, 0, steps+1)
		c := x0.Clone()
		trajs[i] = append(trajs[i], c)
		cur[i] = c
	}
	for s := 0; s < steps; s++ {
		outs := e.PredictBatch(rc, cur)
		for i, y := range outs {
			c := y.Clone()
			trajs[i] = append(trajs[i], c)
			cur[i] = c
		}
	}
	return trajs
}

// bind returns the slot for batch (one for B = 1, many otherwise), bound
// to (graph, batch, cols). A rebind clears the slot's arena and takes the
// static-edge encoding from the compile's shared per-graph cache, so the
// edge encoder runs once per graph however often B changes; the encoding
// is bitwise what a per-request evaluation would produce (the kernels are
// deterministic), so caching is invisible to the results.
func (e *Inference) bind(rc *RankContext, batch, cols int) *inferSlot {
	s := &e.many
	if batch == 1 {
		s = &e.one
	}
	if rc.Graph == s.lastGraph && batch == s.lastB && cols == s.lastCols {
		return s
	}
	s.arena.Clear()
	s.lastGraph, s.lastB, s.lastCols = rc.Graph, batch, cols
	s.staticHe = nil
	if e.Config.EdgeMode == EdgeFeatures4 {
		s.staticHe = e.shared.staticFor(rc.Graph, rc.StaticEdge, e.edgeEnc)
		if batch > 1 {
			one := s.staticHe
			s.staticHe = tensor.New(batch*one.Rows, one.Cols)
			tensor.TileRowsInto(s.staticHe, one, batch)
		}
	}
	if rows := batch * rc.Graph.NumLocal(); batch > 1 && (s.xb == nil || s.xb.Rows != rows || s.xb.Cols != cols) {
		s.xb = tensor.New(rows, cols)
	}
	return s
}

// ensureOut advances the double buffer and sizes the stacked output and
// its per-sample headers.
func (s *inferSlot) ensureOut(rows, cols, batch int) *tensor.Matrix {
	s.outIdx = 1 - s.outIdx
	out := s.outs[s.outIdx]
	if out == nil || out.Rows != rows || out.Cols != cols || len(s.hdrs[s.outIdx]) != batch {
		out = tensor.New(rows, cols)
		s.outs[s.outIdx] = out
		per := rows / batch
		hdrs := make([]*tensor.Matrix, batch)
		for i := range hdrs {
			hdrs[i] = out.RowBlock(i*per, (i+1)*per)
		}
		s.hdrs[s.outIdx] = hdrs
	}
	return out
}

// predictStacked runs one fused epoch over x, batch stacked snapshots,
// into the slot's next output buffer.
func (e *Inference) predictStacked(rc *RankContext, s *inferSlot, x *tensor.Matrix, batch int) {
	a := &s.arena
	a.Reset()
	hx := e.nodeEnc.InferForward(a, x)
	he := s.staticHe
	if he == nil {
		he = e.edgeEnc.InferForward(a, rc.EdgeInputsInto(e.Config.EdgeMode, x, a))
	}
	for _, p := range e.procs {
		hx, he = p.InferForward(rc, a, hx, he)
	}
	y := e.dec.InferForward(a, hx)
	tensor.CloneInto(s.ensureOut(y.Rows, y.Cols, batch), y)
}
