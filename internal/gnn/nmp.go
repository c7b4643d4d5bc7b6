package gnn

import (
	"fmt"
	"math/rand"

	"meshgnn/internal/graph"
	"meshgnn/internal/nn"
	"meshgnn/internal/parallel"
	"meshgnn/internal/tensor"
)

// NMPLayer is one consistent neural message passing layer (paper Eq. 4):
//
//	edge update      e_ij ← e_ij + MLP(x_i, x_j, e_ij)            (4a)
//	local edge aggr  a_i   = Σ_{j∈N(i)} e_ij / d_ij               (4b)
//	halo swap        a_halo ← neighbor ranks' local aggregates    (4c)
//	synchronization  a*_i  = a_i + Σ halo copies of node i        (4d)
//	node update      x_i  ← x_i + MLP(a*_i, x_i)                  (4e)
//
// Steps (4c)–(4d) run only when the rank context's exchanger performs a
// halo exchange; with comm.NoExchange the layer degrades to the standard
// (inconsistent) NMP formulation the paper uses as its baseline.
// Residual connections wrap both MLPs, matching the encode-process-decode
// processors of the MeshGraphNets lineage the paper builds on.
//
// One kernel serves every batch size B ≥ 1: B same-mesh samples stack as
// row blocks of one (B·N_local)×H node matrix and one (B·N_edges)×H edge
// matrix, and B is read off the rows (x.Rows / NumLocal), so B = 1 is the
// ordinary single-sample layer. Every task's index space carries the leading
// sample dimension; per sample block the arithmetic — and hence every
// bit — matches a B = 1 pass over that sample. One batched halo exchange
// per direction moves all B samples' boundary rows in one frame per
// neighbor (comm.Exchanger.ForwardBatched/AdjointBatched), so the message
// count is batch-invariant. The compiled serving twin (inferNMP) runs the
// same forward kernel (nmpForward) over forward-only MLPs.
//
// All hot loops run on the intra-rank worker pool through reusable bound
// tasks (no per-call closures). The edge update (4a) and the aggregation
// adjoint partition cleanly over edges; the aggregation (4b), the halo
// synchronization (4d), and the edge-input adjoint scatter partition over
// *receiver* (resp. sender, owner) rows through the graph's CSR indexes,
// so no two workers ever accumulate into the same row — scatter-adds need
// neither atomics nor locks, and every output bit is independent of the
// thread count. Backward runs the parameter-gradient reductions one
// sample block at a time in ascending order (nn.MLP.BackwardBatched), so
// the B-sample gradient is bitwise the sequential B-pass accumulation.
//
// With SetArena, every per-step matrix (edge inputs, aggregates, halo
// staging, node inputs, and all backward intermediates) comes from the
// shared workspace arena: after the first step the layer allocates
// nothing.
//
// Overlap selects the phased pipeline: the halo exchange of (4c) is split
// into its Start/Finish halves and the rank computes while the messages
// fly. Forward aggregates the boundary (shared) rows first, posts the
// sends, then aggregates the interior rows and assembles the interior
// node-MLP inputs before waiting; Backward posts the adjoint sends right
// after the halo-gradient gather and computes the interior edge-gradient
// work (the edge-MLP's input gradient rows whose receivers no incoming
// message can touch) while the exchange completes. Every row's arithmetic
// and every accumulation order is identical to the synchronous path, so
// the results — losses, gradients, trained parameters — are bitwise
// unchanged for any transport and thread count.
type NMPLayer struct {
	EdgeMLP *nn.MLP // (x_dst ‖ x_src ‖ e) → H
	NodeMLP *nn.MLP // (a* ‖ x) → H

	// DisableDegreeScaling drops the 1/d_ij factor in (4b), an ablation
	// that double-counts shared-face edges and breaks consistency; used
	// to demonstrate why the scaling is load-bearing.
	DisableDegreeScaling bool

	// Overlap runs the phased pipeline (set from Config.Overlap by
	// NewModel; bitwise-identical to the synchronous path).
	Overlap bool

	arena *tensor.Arena

	// caches for backward
	rc     *RankContext
	batch  int
	edgeIn *tensor.Matrix
	nodeIn *tensor.Matrix

	// bound parallel-region tasks, reused across steps
	fwd    nmpForward
	dHaloT batchDHaloTask
	dEOutT batchDEOutTask
	scatT  batchScatterTask
}

// edgeGrain bounds chunk dispatch overhead for per-edge loops of width h.
func edgeGrain(h int) int {
	g := 4096 / (3 * h)
	if g < 8 {
		g = 8
	}
	return g
}

// NewNMPLayer builds the layer's MLPs.
func NewNMPLayer(name string, hidden, mlpHidden int, rng *rand.Rand) *NMPLayer {
	return &NMPLayer{
		EdgeMLP: nn.NewMLP(name+".edge", 3*hidden, hidden, hidden, mlpHidden, true, rng),
		NodeMLP: nn.NewMLP(name+".node", 2*hidden, hidden, hidden, mlpHidden, true, rng),
	}
}

// SetArena implements nn.ArenaUser: the layer and its MLPs draw all
// per-step workspaces from a.
func (l *NMPLayer) SetArena(a *tensor.Arena) {
	l.arena = a
	l.EdgeMLP.SetArena(a)
	l.NodeMLP.SetArena(a)
}

// stackedBatch returns the number of sample blocks stacked in x.
func stackedBatch(g *graph.Local, x *tensor.Matrix) int {
	nl := g.NumLocal()
	if nl == 0 || x.Rows == 0 || x.Rows%nl != 0 {
		panic(fmt.Sprintf("gnn: NMP input has %d rows, not a multiple of %d local nodes", x.Rows, nl))
	}
	return x.Rows / nl
}

// Forward applies the layer to batch = x.Rows/NumLocal stacked samples:
// x is (batch·N_local)×H and e (batch·N_edges)×H, the hidden node and edge
// features. The returned pair are the updated features (arena-owned when
// an arena is set — valid until the owning model's next forward pass).
// The layer caches the stacked activations for Backward.
func (l *NMPLayer) Forward(rc *RankContext, x, e *tensor.Matrix) (xOut, eOut *tensor.Matrix) {
	l.rc = rc
	l.batch = stackedBatch(rc.Graph, x)

	// (4a) edge update with residual. Each edge row is written once.
	l.edgeIn = l.fwd.edgeInputs(rc.Graph, l.arena, x, e, l.batch)
	eOut = l.EdgeMLP.Forward(l.edgeIn)
	tensor.AddScaled(eOut, 1, e) // residual

	// (4b)–(4d) aggregation, halo swap, synchronization.
	l.nodeIn = l.fwd.nodeInputs(rc, l.arena, x, eOut, l.batch, l.Overlap, l.DisableDegreeScaling)

	// (4e) node update with residual.
	xOut = l.NodeMLP.Forward(l.nodeIn)
	tensor.AddScaled(xOut, 1, x)
	return xOut, eOut
}

// Backward propagates gradients dxOut, deOut through the layer after the
// matching Forward, returning gradients with respect to the input x and
// e. Parameter gradients accumulate into the MLPs, per sample block in
// ascending order. The halo exchange is differentiated by its adjoint:
// halo-row gradients travel back to the ranks whose aggregates populated
// them (the torch.distributed.nn behaviour the paper depends on for
// Eq. 3).
func (l *NMPLayer) Backward(dxOut, deOut *tensor.Matrix) (dx, de *tensor.Matrix) {
	rc := l.rc
	g := rc.Graph
	h := dxOut.Cols
	batch := l.batch
	nl, ne, nh := g.NumLocal(), g.NumEdges(), g.NumHalo()

	// (4e) node update backward; residual passes dxOut straight through.
	// The concatenated input gradient splits into column views instead of
	// copies: the aggregate half is materialized (the adjoint exchange
	// scatter-adds into it), the x half is consumed in place.
	dNodeIn := l.NodeMLP.BackwardBatched(dxOut, batch)
	dAgg := l.arena.Get(batch*nl, h)
	tensor.CopyViewInto(dAgg, dNodeIn.View(0, h))
	dx = l.arena.Get(dxOut.Rows, h)
	tensor.CloneInto(dx, dxOut)
	tensor.AddScaledView(dx, 1, dNodeIn.View(h, h))

	// (4d) synchronization backward: each halo row's gradient is its
	// owner's aggregate gradient; the local aggregate keeps dAgg.
	dHalo := l.arena.Get(batch*nh, h)
	l.dHaloT = batchDHaloTask{g: g, dAgg: dAgg, dHalo: dHalo}
	parallel.ForTask(batch*nh, edgeGrain(h), &l.dHaloT)

	// (4c) halo swap adjoint: halo gradients scatter-add into the
	// neighbors' local aggregate gradients. (4b) aggregation backward:
	// de_k = dAgg[dst_k] / d_k plus the direct deOut path — a gather per
	// edge, every edge row written exactly once.
	dEOut := l.arena.Get(batch*ne, h)
	if l.Overlap {
		// Phased adjoint: the exchange only accumulates into boundary rows
		// within each sample block, so the gather for interior-receiver
		// edges is independent edge-MLP input work that runs while the
		// gradients fly; the boundary-receiver gather waits for
		// FinishAdjoint.
		rc.Ex.StartAdjointBatched(rc.Comm, dHalo, dAgg, batch)
		l.dEOutT = batchDEOutTask{g: g, dAgg: dAgg, dOut: dEOut,
			disableDeg: l.DisableDegreeScaling,
			edges:      g.EdgeOrder[g.NumBoundaryEdges:], deOut: deOut}
		parallel.ForTask(batch*(ne-g.NumBoundaryEdges), edgeGrain(h), &l.dEOutT)
		rc.Ex.FinishAdjoint(rc.Comm)
		l.dEOutT.edges = g.EdgeOrder[:g.NumBoundaryEdges]
		parallel.ForTask(batch*g.NumBoundaryEdges, edgeGrain(h), &l.dEOutT)
	} else {
		rc.Ex.AdjointBatched(rc.Comm, dHalo, dAgg, batch)
		l.dEOutT = batchDEOutTask{g: g, dAgg: dAgg, dOut: dEOut, disableDeg: l.DisableDegreeScaling}
		parallel.ForTask(batch*ne, edgeGrain(h), &l.dEOutT)
		// deOut also flows directly into eOut (it is returned upward).
		tensor.AddScaled(dEOut, 1, deOut)
	}

	// (4a) edge update backward; residual passes dEOut to de.
	dEdgeIn := l.EdgeMLP.BackwardBatched(dEOut, batch)
	de = l.arena.Get(batch*ne, h)
	tensor.CloneInto(de, dEOut)
	tensor.AddScaledView(de, 1, dEdgeIn.View(2*h, h))
	// The receiver-side gradient scatters along the (dst,src)-sorted
	// edges directly; the sender-side gradient scatters through the
	// sender-grouped permutation. Both partition by destination row.
	l.scatT = batchScatterTask{g: g, dst: dx, src: dEdgeIn.View(0, h), start: g.RecvStart}
	parallel.ForTask(batch*nl, edgeGrain(h), &l.scatT)
	l.scatT.src = dEdgeIn.View(h, h)
	l.scatT.start, l.scatT.order = g.SendStart, g.SendPerm
	parallel.ForTask(batch*nl, edgeGrain(h), &l.scatT)
	return dx, de
}

// Params returns the layer's trainable parameters.
func (l *NMPLayer) Params() []*nn.Param {
	return append(l.EdgeMLP.Params(), l.NodeMLP.Params()...)
}

// nmpForward is the forward kernel of the layer, shared by the training
// layer and the compiled serving twin: both run (4a)'s input assembly and
// (4b)–(4d) through it, around their own edge and node MLPs.
type nmpForward struct {
	edgeInT batchEdgeInTask
	aggT    batchAggTask
	absorbT batchAbsorbTask
	hcatT   batchHCatTask
}

// edgeInputs assembles the stacked (x_i ‖ x_j ‖ e_ij) edge-MLP input rows
// of (4a) into a workspace from a.
func (k *nmpForward) edgeInputs(g *graph.Local, a *tensor.Arena, x, e *tensor.Matrix, batch int) *tensor.Matrix {
	h := x.Cols
	edgeIn := a.Get(batch*g.NumEdges(), 3*h)
	k.edgeInT = batchEdgeInTask{g: g, x: x, e: e, out: edgeIn, h: h}
	parallel.ForTask(batch*g.NumEdges(), edgeGrain(h), &k.edgeInT)
	return edgeIn
}

// nodeInputs runs the degree-scaled receiver aggregation (4b), the halo
// swap (4c) and the owner-grouped synchronization (4d) over the updated
// edge features eOut, and returns the stacked (a* ‖ x) node-MLP input rows
// of (4e). The halo staging buffer is zeroed because NoExchange leaves it
// untouched (and must then contribute exactly nothing in 4d).
func (k *nmpForward) nodeInputs(rc *RankContext, a *tensor.Arena, x, eOut *tensor.Matrix, batch int, overlap, disableDeg bool) *tensor.Matrix {
	g := rc.Graph
	h := x.Cols
	nl, nb := g.NumLocal(), g.NumBoundary
	agg := a.GetZeroed(batch*nl, h)
	halo := a.GetZeroed(batch*g.NumHalo(), h)
	nodeIn := a.Get(batch*nl, 2*h)

	if overlap {
		// Phased pipeline: aggregate the boundary rows (everything the
		// plan sends), put the halo payloads on the wire, and hide the
		// transfer behind the interior aggregation and the interior half
		// of the (4e) input assembly. Each row is aggregated exactly once
		// with the same per-row edge order as the synchronous sweep.
		k.aggT = batchAggTask{g: g, eOut: eOut, agg: agg, disableDeg: disableDeg, nodes: g.NodeOrder[:nb]}
		parallel.ForTask(batch*nb, edgeGrain(h), &k.aggT)
		rc.Ex.StartForwardBatched(rc.Comm, agg, halo, batch)

		k.aggT.nodes = g.NodeOrder[nb:]
		parallel.ForTask(batch*(nl-nb), edgeGrain(h), &k.aggT)
		k.hcatT = batchHCatTask{agg: agg, x: x, out: nodeIn, h: h, nodes: g.NodeOrder[nb:], nl: nl}
		parallel.ForTask(batch*(nl-nb), edgeGrain(h), &k.hcatT)

		rc.Ex.FinishForward(rc.Comm)
		// (4d) on the boundary prefix only — interior rows own no halo
		// copies (Validate enforces it), so nothing is dropped.
		k.absorbT = batchAbsorbTask{g: g, agg: agg, halo: halo, nodes: g.NodeOrder[:nb]}
		parallel.ForTask(batch*nb, edgeGrain(h), &k.absorbT)
		k.hcatT.nodes = g.NodeOrder[:nb]
		parallel.ForTask(batch*nb, edgeGrain(h), &k.hcatT)
	} else {
		k.aggT = batchAggTask{g: g, eOut: eOut, agg: agg, disableDeg: disableDeg}
		parallel.ForTask(batch*nl, edgeGrain(h), &k.aggT)
		rc.Ex.ForwardBatched(rc.Comm, agg, halo, batch)
		// (4d) synchronization: owners absorb their halo copies,
		// partitioned by owner through the owner-grouped halo CSR (every
		// graph builder populates it, and Validate enforces its
		// coherence).
		k.absorbT = batchAbsorbTask{g: g, agg: agg, halo: halo}
		parallel.ForTask(batch*nl, edgeGrain(h), &k.absorbT)
		tensor.HCatInto(nodeIn, agg, x)
	}
	return nodeIn
}

// batchEdgeInTask assembles stacked (x_i ‖ x_j ‖ e_ij) rows: global index
// q decomposes into (sample b, edge k) and the gathers offset into sample
// b's row blocks. Each row is written once.
type batchEdgeInTask struct {
	g         *graph.Local
	x, e, out *tensor.Matrix
	h         int
}

func (t *batchEdgeInTask) Run(lo, hi int) {
	h := t.h
	nl, ne := t.g.NumLocal(), t.g.NumEdges()
	for q := lo; q < hi; q++ {
		b, k := q/ne, q%ne
		ed := t.g.Edges[k]
		xo := b * nl
		row := t.out.Row(q)
		copy(row[:h], t.x.Row(xo+ed[1]))    // x_i (receiver)
		copy(row[h:2*h], t.x.Row(xo+ed[0])) // x_j (sender)
		copy(row[2*h:], t.e.Row(q))         // e_ij
	}
}

// batchAggTask is the stacked receiver aggregation: index p decomposes
// into (sample b, position) over the node list (or all local rows), and
// each receiver row walks its incoming edges in the canonical CSR order —
// the per-row summation sequence of a single-sample sweep, for any batch
// size and thread count. With nodes set, the span indexes into that row
// list instead of [0, NumLocal): the phased pipeline runs the boundary and
// interior sub-ranges of the boundary-first permutation as two disjoint
// passes, leaving every row's sum — and hence every bit — unchanged.
type batchAggTask struct {
	g          *graph.Local
	eOut, agg  *tensor.Matrix
	disableDeg bool
	nodes      []int
}

func (t *batchAggTask) Run(lo, hi int) {
	g := t.g
	nl, ne := g.NumLocal(), g.NumEdges()
	count := nl
	if t.nodes != nil {
		count = len(t.nodes)
	}
	for p := lo; p < hi; p++ {
		b, q := p/count, p%count
		i := q
		if t.nodes != nil {
			i = t.nodes[q]
		}
		dst := t.agg.Row(b*nl + i)
		eo := b * ne
		for k := g.RecvStart[i]; k < g.RecvStart[i+1]; k++ {
			src := t.eOut.Row(eo + k)
			inv := 1.0
			if !t.disableDeg {
				inv = 1 / g.EdgeDegree[k]
			}
			for j, v := range src {
				dst[j] += inv * v
			}
		}
	}
}

// batchAbsorbTask is the stacked synchronization: owners absorb their
// halo copies within their own sample block, contributions in ascending
// halo-row order exactly like a single-sample sweep. nodes optionally
// restricts the sweep to a row list (the boundary prefix — interior rows
// own no halo copies, so the restriction drops only no-ops).
type batchAbsorbTask struct {
	g         *graph.Local
	agg, halo *tensor.Matrix
	nodes     []int
}

func (t *batchAbsorbTask) Run(lo, hi int) {
	g := t.g
	nl, nh := g.NumLocal(), g.NumHalo()
	count := nl
	if t.nodes != nil {
		count = len(t.nodes)
	}
	for p := lo; p < hi; p++ {
		b, q := p/count, p%count
		i := q
		if t.nodes != nil {
			i = t.nodes[q]
		}
		dst := t.agg.Row(b*nl + i)
		ho := b * nh
		for k := g.HaloStart[i]; k < g.HaloStart[i+1]; k++ {
			src := t.halo.Row(ho + g.HaloPerm[k])
			for j, v := range src {
				dst[j] += v
			}
		}
	}
}

// batchHCatTask assembles stacked node-MLP input rows (a* ‖ x) for the
// listed nodes of every sample block.
type batchHCatTask struct {
	agg, x, out *tensor.Matrix
	h           int
	nodes       []int
	nl          int
}

func (t *batchHCatTask) Run(lo, hi int) {
	count := len(t.nodes)
	for p := lo; p < hi; p++ {
		b, q := p/count, p%count
		r := b*t.nl + t.nodes[q]
		row := t.out.Row(r)
		copy(row[:t.h], t.agg.Row(r))
		copy(row[t.h:], t.x.Row(r))
	}
}

// batchDHaloTask is the stacked synchronization adjoint: each halo row's
// gradient is its owner's aggregate gradient within the same sample
// block — a pure gather, every halo row written once.
type batchDHaloTask struct {
	g           *graph.Local
	dAgg, dHalo *tensor.Matrix
}

func (t *batchDHaloTask) Run(lo, hi int) {
	g := t.g
	nl, nh := g.NumLocal(), g.NumHalo()
	for p := lo; p < hi; p++ {
		b, hr := p/nh, p%nh
		copy(t.dHalo.Row(p), t.dAgg.Row(b*nl+g.HaloOwner[hr]))
	}
}

// batchDEOutTask is the stacked aggregation backward: de_k = dAgg[dst_k]
// / d_k gathered within each sample block, with the upstream deOut folded
// per edge on the phased path (two separately rounded steps, like the
// synchronous gather followed by tensor.AddScaled).
type batchDEOutTask struct {
	g          *graph.Local
	dAgg, dOut *tensor.Matrix
	disableDeg bool
	edges      []int
	deOut      *tensor.Matrix
}

func (t *batchDEOutTask) Run(lo, hi int) {
	g := t.g
	nl, ne := g.NumLocal(), g.NumEdges()
	count := ne
	if t.edges != nil {
		count = len(t.edges)
	}
	for p := lo; p < hi; p++ {
		b, q := p/count, p%count
		k := q
		if t.edges != nil {
			k = t.edges[q]
		}
		src := t.dAgg.Row(b*nl + g.Edges[k][1])
		dst := t.dOut.Row(b*ne + k)
		inv := 1.0
		if !t.disableDeg {
			inv = 1 / g.EdgeDegree[k]
		}
		for j, v := range src {
			dst[j] = inv * v
		}
		if t.deOut != nil {
			for j, v := range t.deOut.Row(b*ne + k) {
				dst[j] += v
			}
		}
	}
}

// batchScatterTask is the stacked edge-input adjoint scatter: the
// row-block form of tensor.ScatterAddRowsGroupedView. Index p decomposes
// into (sample b, destination node i); each destination row walks its CSR
// edge span in ascending order within its own sample block, so no two
// workers touch one row and every accumulation order matches a
// single-sample scatter.
type batchScatterTask struct {
	g     *graph.Local
	dst   *tensor.Matrix // (batch·N_local)×h
	src   tensor.View    // (batch·N_edges) rows
	start []int          // CSR over local nodes
	order []int          // nil (canonical) or the sender-grouped permutation
}

func (t *batchScatterTask) Run(lo, hi int) {
	g := t.g
	nl, ne := g.NumLocal(), g.NumEdges()
	for p := lo; p < hi; p++ {
		b, i := p/nl, p%nl
		dst := t.dst.Row(p)
		eo := b * ne
		for k := t.start[i]; k < t.start[i+1]; k++ {
			e := k
			if t.order != nil {
				e = t.order[k]
			}
			src := t.src.Row(eo + e)
			for j, v := range src {
				dst[j] += v
			}
		}
	}
}
