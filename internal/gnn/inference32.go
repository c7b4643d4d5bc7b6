package gnn

import (
	"meshgnn/internal/graph"
	"meshgnn/internal/nn"
	"meshgnn/internal/parallel"
	"meshgnn/internal/tensor"
)

// Float32 serving engine (Config.Precision == Float32). The structure is
// the float64 engine's, compiled over single-precision twins:
//
//   - parameters down-convert ONCE at NewInference (nn.Compile32), with
//     every weight above the packed-GEMM threshold pre-packed so serving
//     GEMMs skip the pack pass;
//   - the static-edge encoding is computed in float32 once per binding;
//   - activations live in a float32 arena (half the bytes, and the
//     GEMM-bound serving path moves half the memory traffic);
//   - the halo exchange stages through two persistent float64 matrices,
//     because the transport layer's element type is float64: aggregates
//     promote before the swap and halo payloads demote after. The
//     promote/demote pair touches only boundary/halo rows' worth of
//     traffic per layer and keeps the exchange plans, transports, and
//     overlap scheduling byte-identical to the training path.
//
// Predict keeps its float64 signature — inputs demote into a persistent
// buffer, outputs promote into the engine's double-buffered float64
// prediction — so rollouts, drivers, and the serving facade are
// precision-agnostic. The result approximates the float64 engine to a
// tolerance (gated in the parity tests) rather than bitwise, but remains
// bitwise-reproducible across thread counts, transports, and overlap
// settings: every f32 kernel partitions disjoint output rows with a fixed
// per-row accumulation order, and the exchange semantics are unchanged.
type engine32 struct {
	nodeEnc, edgeEnc, dec *nn.InferMLP32
	procs                 []*inferNMP32

	arena      *tensor.Arena32
	staticHe32 *tensor.Matrix32 // cached f32 edge encoding (EdgeFeatures4)
	x32        *tensor.Matrix32 // persistent input demote buffer

	// f64 staging for the halo exchange (see the package comment above);
	// bound per graph. haloStage is allocated zeroed and only ever written
	// by the exchanger, so a NoExchange run demotes exact zeros into the
	// f32 halo buffer — the same "contributes nothing" contract as the
	// float64 path's zeroed halo workspace.
	aggStage, haloStage *tensor.Matrix
}

func compile32(m *Model) *engine32 {
	f := &engine32{
		nodeEnc: m.NodeEncoder.Compile32(),
		edgeEnc: m.EdgeEncoder.Compile32(),
		dec:     m.Decoder.Compile32(),
		arena:   tensor.NewArena32(),
	}
	for _, l := range m.Layers {
		// Validate rejects Attention+Float32, so every processor is an
		// NMPLayer here.
		f.procs = append(f.procs, newInferNMP32(l.(*NMPLayer), m.Config.Overlap))
	}
	return f
}

func (e *Inference) bind32(rc *RankContext, x *tensor.Matrix) {
	f := e.f32
	f.arena.Clear()
	e.one.arena.Clear() // f64 staging arena (EdgeFeatures7 assembly)
	e.one.lastGraph, e.one.lastCols = rc.Graph, x.Cols
	g := rc.Graph
	h := e.Config.HiddenDim
	f.aggStage = tensor.New(g.NumLocal(), h)
	f.haloStage = tensor.New(g.NumHalo(), h)
	f.x32 = tensor.New32(x.Rows, x.Cols)
	f.staticHe32 = nil
	if e.Config.EdgeMode == EdgeFeatures4 {
		f.staticHe32 = f.edgeEnc.InferForward32(nil, tensor.Demote32(rc.StaticEdge))
	}
}

func (e *Inference) predict32(rc *RankContext, x *tensor.Matrix) *tensor.Matrix {
	f := e.f32
	f.arena.Reset()
	tensor.DemoteInto32(f.x32, x)
	hx := f.nodeEnc.InferForward32(f.arena, f.x32)
	he := f.staticHe32
	if he == nil {
		e.one.arena.Reset()
		ein64 := rc.EdgeInputsInto(e.Config.EdgeMode, x, &e.one.arena)
		ein := f.arena.Get(ein64.Rows, ein64.Cols)
		tensor.DemoteInto32(ein, ein64)
		he = f.edgeEnc.InferForward32(f.arena, ein)
	}
	for _, p := range f.procs {
		hx, he = p.InferForward32(rc, f, hx, he)
	}
	y := f.dec.InferForward32(f.arena, hx)
	out := e.one.ensureOut(y.Rows, y.Cols, 1)
	tensor.PromoteInto64(out, y)
	return out
}

// inferNMP32 is the float32 twin of inferNMP: the same Eq. 4 schedule
// (including the phased overlap split) over f32 tasks and MLPs, with the
// halo swap staging through the engine's f64 matrices.
type inferNMP32 struct {
	edgeMLP, nodeMLP *nn.InferMLP32
	disableDeg       bool
	overlap          bool

	edgeInT nmpEdgeInTask32
	aggT    nmpAggTask32
	absorbT nmpAbsorbTask32
	hcatT   nmpHCatTask32
}

func newInferNMP32(l *NMPLayer, overlap bool) *inferNMP32 {
	return &inferNMP32{
		edgeMLP:    l.EdgeMLP.Compile32(),
		nodeMLP:    l.NodeMLP.Compile32(),
		disableDeg: l.DisableDegreeScaling,
		overlap:    overlap || l.Overlap,
	}
}

func (l *inferNMP32) setOverlap(on bool) { l.overlap = on }

func (l *inferNMP32) InferForward32(rc *RankContext, f *engine32, x, e *tensor.Matrix32) (xOut, eOut *tensor.Matrix32) {
	g := rc.Graph
	h := x.Cols
	a := f.arena

	// (4a) edge update with residual.
	edgeIn := a.Get(g.NumEdges(), 3*h)
	l.edgeInT = nmpEdgeInTask32{g: g, x: x, e: e, out: edgeIn, h: h}
	parallel.ForTask(g.NumEdges(), edgeGrain(h), &l.edgeInT)
	eOut = l.edgeMLP.InferForward32(a, edgeIn)
	tensor.AddScaled32(eOut, 1, e)

	// (4b)–(4d) with the f64 exchange staging: promote the aggregates the
	// plan will send, swap, demote the arrivals, absorb.
	agg := a.GetZeroed(g.NumLocal(), h)
	halo := a.GetZeroed(g.NumHalo(), h)
	nodeIn := a.Get(g.NumLocal(), 2*h)

	if l.overlap {
		l.aggT = nmpAggTask32{g: g, eOut: eOut, agg: agg,
			disableDeg: l.disableDeg, nodes: g.NodeOrder[:g.NumBoundary]}
		parallel.ForTask(g.NumBoundary, edgeGrain(h), &l.aggT)
		// The exchanger packs boundary rows only, and those are final
		// here — interior rows of the promoted staging are stale zeros the
		// plan never reads.
		tensor.PromoteInto64(f.aggStage, agg)
		rc.Ex.StartForward(rc.Comm, f.aggStage, f.haloStage)

		l.aggT.nodes = g.NodeOrder[g.NumBoundary:]
		parallel.ForTask(g.NumLocal()-g.NumBoundary, edgeGrain(h), &l.aggT)
		l.hcatT = nmpHCatTask32{agg: agg, x: x, out: nodeIn, h: h,
			nodes: g.NodeOrder[g.NumBoundary:]}
		parallel.ForTask(g.NumLocal()-g.NumBoundary, edgeGrain(h), &l.hcatT)

		rc.Ex.FinishForward(rc.Comm)
		tensor.DemoteInto32(halo, f.haloStage)
		l.absorbT = nmpAbsorbTask32{g: g, agg: agg, halo: halo, nodes: g.NodeOrder[:g.NumBoundary]}
		parallel.ForTask(g.NumBoundary, edgeGrain(h), &l.absorbT)
		l.hcatT.nodes = g.NodeOrder[:g.NumBoundary]
		parallel.ForTask(g.NumBoundary, edgeGrain(h), &l.hcatT)
	} else {
		l.aggT = nmpAggTask32{g: g, eOut: eOut, agg: agg, disableDeg: l.disableDeg}
		parallel.ForTask(g.NumLocal(), edgeGrain(h), &l.aggT)
		tensor.PromoteInto64(f.aggStage, agg)
		rc.Ex.Forward(rc.Comm, f.aggStage, f.haloStage)
		tensor.DemoteInto32(halo, f.haloStage)
		l.absorbT = nmpAbsorbTask32{g: g, agg: agg, halo: halo}
		parallel.ForTask(g.NumLocal(), edgeGrain(h), &l.absorbT)
		tensor.HCatInto32(nodeIn, agg, x)
	}

	// (4e) node update with residual.
	xOut = l.nodeMLP.InferForward32(a, nodeIn)
	tensor.AddScaled32(xOut, 1, x)
	return xOut, eOut
}

// nmpEdgeInTask32 assembles (x_i ‖ x_j ‖ e_ij) rows — nmpEdgeInTask over
// float32 storage.
type nmpEdgeInTask32 struct {
	g         *graph.Local
	x, e, out *tensor.Matrix32
	h         int
}

func (t *nmpEdgeInTask32) Run(lo, hi int) {
	h := t.h
	for k := lo; k < hi; k++ {
		ed := t.g.Edges[k]
		row := t.out.Row(k)
		copy(row[:h], t.x.Row(ed[1]))
		copy(row[h:2*h], t.x.Row(ed[0]))
		copy(row[2*h:], t.e.Row(k))
	}
}

// nmpAggTask32 is the degree-scaled receiver aggregation with the 1/d
// factor rounded to float32 once per edge; the per-row edge order is the
// canonical CSR sweep, so bits are thread-count-invariant.
type nmpAggTask32 struct {
	g          *graph.Local
	eOut, agg  *tensor.Matrix32
	disableDeg bool
	nodes      []int
}

func (t *nmpAggTask32) Run(lo, hi int) {
	g := t.g
	for p := lo; p < hi; p++ {
		i := p
		if t.nodes != nil {
			i = t.nodes[p]
		}
		dst := t.agg.Row(i)
		for k := g.RecvStart[i]; k < g.RecvStart[i+1]; k++ {
			src := t.eOut.Row(k)
			inv := float32(1)
			if !t.disableDeg {
				inv = float32(1 / g.EdgeDegree[k])
			}
			for j, v := range src {
				dst[j] += inv * v
			}
		}
	}
}

// nmpAbsorbTask32 is the owner-grouped halo synchronization (4d) over
// float32 rows.
type nmpAbsorbTask32 struct {
	g         *graph.Local
	agg, halo *tensor.Matrix32
	nodes     []int
}

func (t *nmpAbsorbTask32) Run(lo, hi int) {
	g := t.g
	for p := lo; p < hi; p++ {
		i := p
		if t.nodes != nil {
			i = t.nodes[p]
		}
		dst := t.agg.Row(i)
		for q := g.HaloStart[i]; q < g.HaloStart[i+1]; q++ {
			src := t.halo.Row(g.HaloPerm[q])
			for j, v := range src {
				dst[j] += v
			}
		}
	}
}

// nmpHCatTask32 assembles (a* ‖ x) rows for the listed nodes.
type nmpHCatTask32 struct {
	agg, x, out *tensor.Matrix32
	h           int
	nodes       []int
}

func (t *nmpHCatTask32) Run(lo, hi int) {
	for p := lo; p < hi; p++ {
		i := t.nodes[p]
		row := t.out.Row(i)
		copy(row[:t.h], t.agg.Row(i))
		copy(row[t.h:], t.x.Row(i))
	}
}
