package nn

import (
	"fmt"
	"math"

	"meshgnn/internal/parallel"
	"meshgnn/internal/tensor"
)

// Forward-only evaluators compiled from trained layers. A compiled twin
// shares the source layer's parameter storage (no copies — later
// optimizer updates are visible through it) but carries none of the
// training machinery: no input caches, no xhat/invStd stores, no
// gradient scratch. Its arithmetic is operation-for-operation identical
// to the training Forward, so predictions are bitwise-equal; it just
// skips every store whose only consumer is a Backward that will never
// run. Workspaces come from the arena passed per call, so one engine
// epoch can span encode, message passing, and decode while a nil arena
// yields ordinary allocations (used for one-time precomputations that
// must outlive the epoch).

// InferLayer is the forward-only counterpart of Layer.
type InferLayer interface {
	InferForward(a *tensor.Arena, x *tensor.Matrix) *tensor.Matrix
}

// InferMLP is a forward-only MLP compiled from a trained MLP.
//
// A compiled block splits into two kinds of state. The parameter views —
// weight/bias/gain/shift aliases and the pre-packed GEMM panels — are
// immutable during serving and may be shared by any number of
// evaluators; the per-call task scaffolding (the pooled parallel-for
// tasks inside ELU and LayerNorm) is mutable and single-goroutine.
// Session carves a fresh evaluator over the shared immutable views, so S
// concurrent serving sessions reference one compile instead of S.
type InferMLP struct {
	In, Out int
	layers  []InferLayer
}

// Compile builds the forward-only twin of the block. The twin aliases
// the block's parameters; it holds no arena — callers pass one per
// forward (nil allocates). Weight matrices above the packed-GEMM
// threshold are packed ONCE here (bitwise-invisible — MatMul would pack
// the identical panels per call); after further training of the source
// block, Repack refreshes them.
func (m *MLP) Compile() *InferMLP {
	out := &InferMLP{In: m.In, Out: m.Out}
	for _, l := range m.layers {
		switch t := l.(type) {
		case *Linear:
			li := &linearInfer{in: t.In, out: t.Out, w: t.Weight.W, b: t.Bias.W}
			if tensor.ShouldPack(t.In, t.Out) {
				li.pb = tensor.PackB(t.Weight.W)
			}
			out.layers = append(out.layers, li)
		case *ELU:
			out.layers = append(out.layers, &eluInfer{})
		case *LayerNorm:
			out.layers = append(out.layers, &lnInfer{dim: t.Dim, gain: t.Gain.W, shift: t.Shift.W})
		default:
			panic(fmt.Sprintf("nn: cannot compile layer %T for inference", l))
		}
	}
	return out
}

// Session returns an independent evaluator over this block's compiled
// parameter views: the weight aliases and packed panels are shared (no
// copies), the mutable per-call task state is fresh. Evaluators from the
// same compile may run concurrently on different goroutines; their
// predictions are bitwise-identical to the source evaluator's.
func (m *InferMLP) Session() *InferMLP {
	out := &InferMLP{In: m.In, Out: m.Out}
	for _, l := range m.layers {
		switch t := l.(type) {
		case *linearInfer:
			out.layers = append(out.layers, &linearInfer{in: t.in, out: t.out, w: t.w, b: t.b, pb: t.pb})
		case *eluInfer:
			out.layers = append(out.layers, &eluInfer{})
		case *lnInfer:
			out.layers = append(out.layers, &lnInfer{dim: t.dim, gain: t.gain, shift: t.shift})
		default:
			panic(fmt.Sprintf("nn: cannot session layer %T", l))
		}
	}
	return out
}

// Repack refreshes the pre-packed weight panels from the aliased
// parameter storage — call after the source block trained on. Sessions
// share the panels, so Repack must not race concurrent evaluations (it
// is a rebind-time operation, like gnn.Inference.Refresh).
func (m *InferMLP) Repack() {
	for _, l := range m.layers {
		t, ok := l.(*linearInfer)
		if !ok || t.pb == nil {
			continue
		}
		t.pb.Repack(t.w)
	}
}

// InferForward evaluates the block, drawing every activation from a
// (nil allocates). Bitwise-equal to the training Forward.
func (m *InferMLP) InferForward(a *tensor.Arena, x *tensor.Matrix) *tensor.Matrix {
	for _, l := range m.layers {
		x = l.InferForward(a, x)
	}
	return x
}

// linearInfer is y = x·W + b over aliased parameters, without the input
// cache Linear keeps for its backward. Above the packed-GEMM threshold
// the weight panels are packed once at compile (pb) instead of per call.
type linearInfer struct {
	in, out int
	w, b    *tensor.Matrix
	pb      *tensor.PackedB // compile-time packed W, nil below threshold
}

func (l *linearInfer) InferForward(a *tensor.Arena, x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != l.in {
		panic(fmt.Sprintf("nn: inference Linear input width %d, want %d", x.Cols, l.in))
	}
	y := a.Get(x.Rows, l.out)
	if l.pb.Usable() {
		tensor.MatMulPacked(y, x, l.pb)
	} else {
		tensor.MatMul(y, x, l.w)
	}
	tensor.AddRowVector(y, l.b.Data)
	return y
}

// eluInfer applies the ELU without retaining the activation cache.
type eluInfer struct {
	fwd eluForwardTask
}

func (e *eluInfer) InferForward(a *tensor.Arena, x *tensor.Matrix) *tensor.Matrix {
	y := a.Get(x.Rows, x.Cols)
	e.fwd.x, e.fwd.y = x, y
	parallel.ForTask(len(x.Data), 4096, &e.fwd)
	return y
}

// lnInferTask normalizes rows exactly like lnForwardTask but writes only
// the output: the xhat matrix and the invStd column exist solely for the
// backward pass, so the inference twin drops both stores. The per-value
// arithmetic — (v-mu)*inv rounded, then *gain + shift — is unchanged.
type lnInferTask struct {
	ln   *lnInfer
	x, y *tensor.Matrix
}

func (t *lnInferTask) Run(lo, hi int) {
	ln := t.ln
	n := float64(ln.dim)
	gain, shift := ln.gain.Data, ln.shift.Data
	for i := lo; i < hi; i++ {
		row := t.x.Row(i)
		var mu float64
		for _, v := range row {
			mu += v
		}
		mu /= n
		var varsum float64
		for _, v := range row {
			d := v - mu
			varsum += d * d
		}
		inv := 1 / math.Sqrt(varsum/n+Epsilon)
		out := t.y.Row(i)
		for j, v := range row {
			xh := (v - mu) * inv
			out[j] = xh*gain[j] + shift[j]
		}
	}
}

// lnInfer is the forward-only LayerNorm over aliased gain/shift.
type lnInfer struct {
	dim         int
	gain, shift *tensor.Matrix
	fwd         lnInferTask
}

func (ln *lnInfer) InferForward(a *tensor.Arena, x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != ln.dim {
		panic(fmt.Sprintf("nn: inference LayerNorm width %d, want %d", x.Cols, ln.dim))
	}
	y := a.Get(x.Rows, x.Cols)
	ln.fwd.ln, ln.fwd.x, ln.fwd.y = ln, x, y
	parallel.ForTask(x.Rows, 256, &ln.fwd)
	return y
}
