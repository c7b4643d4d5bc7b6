// Package nn implements the neural-network kernels the consistent GNN is
// built from: linear layers, ELU activations, layer normalization, and
// residual MLP blocks, each with explicit reverse-mode backward passes.
//
// The paper relies on PyTorch autodiff; here every layer caches what its
// backward needs and exposes Forward/Backward pairs. Gradient correctness
// is pinned down by finite-difference tests, and the distributed trainer
// reduces gradients across ranks exactly like PyTorch DDP does — except
// with a deterministic rank-ordered reduction so the paper's gradient
// consistency property (Eq. 3) can be asserted to machine precision.
//
// Memory model. Layers optionally draw their activations and intermediate
// gradients from a shared tensor.Arena (SetArena): after the first
// forward/backward pass the arena replays recorded buffers, so a training
// step allocates nothing. Without an arena the layers fall back to fresh
// tensor.New allocations with identical numerics. Parameters and their
// gradients are always ordinary allocations — their lifetime spans steps.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"meshgnn/internal/parallel"
	"meshgnn/internal/tensor"
)

// Param is one trainable tensor with its gradient accumulator.
//
// version counts the mutations of W since construction: every optimizer
// step and checkpoint/deserialize restore calls Bump. Derived caches
// keyed on a parameter's contents — the training-forward packed-GEMM
// panels, most prominently — validate against Version instead of
// re-deriving per call, so an epoch of forwards between two optimizer
// steps packs each weight matrix exactly once. Code that writes W.Data
// directly must Bump, or stale panels serve the old weights.
type Param struct {
	Name string
	W    *tensor.Matrix
	G    *tensor.Matrix

	version uint64
}

// Bump records a mutation of W, invalidating version-keyed caches.
func (p *Param) Bump() { p.version++ }

// Version returns the mutation counter of W.
func (p *Param) Version() uint64 { return p.version }

func newParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols), G: tensor.New(rows, cols)}
}

// Count returns the number of scalar parameters.
func (p *Param) Count() int { return p.W.Rows * p.W.Cols }

// Layer is the forward/backward contract shared by all kernels. Forward
// consumes the input batch and returns the output; Backward consumes the
// output gradient, accumulates parameter gradients, and returns the input
// gradient. Backward must be called after the matching Forward.
//
// Returned activations and gradients may be arena-owned (see ArenaUser):
// they remain valid until the owning model begins its next forward pass.
type Layer interface {
	Forward(x *tensor.Matrix) *tensor.Matrix
	Backward(dy *tensor.Matrix) *tensor.Matrix
	Params() []*Param
}

// ArenaUser is implemented by layers that can draw per-step workspaces
// from a shared arena instead of allocating.
type ArenaUser interface {
	SetArena(a *tensor.Arena)
}

// Linear is a dense affine layer y = x·W + b.
type Linear struct {
	In, Out int
	Weight  *Param // In×Out
	Bias    *Param // 1×Out

	arena *tensor.Arena
	x     *tensor.Matrix // cached input
	dw    *tensor.Matrix // scratch for the weight-gradient GEMM
	// bx/bdy are persistent row-block headers for the batched backward's
	// per-sample parameter-gradient reductions (tensor.SliceRows rewrites
	// them in place, so block iteration allocates nothing).
	bx, bdy tensor.Matrix

	// pw caches the packed-GEMM panels of Weight.W for the training
	// forward, keyed by the parameter version: without it every Forward
	// above the packed threshold re-packs the identical panels into
	// pooled scratch. An epoch of forwards between optimizer steps now
	// packs once; Step's Bump invalidates. Bitwise-invisible — the
	// packed kernels consume identical panels either way.
	pw    *tensor.PackedB
	pwVer uint64
}

// NewLinear creates a linear layer with Glorot-uniform weights drawn from
// rng. Construction order is deterministic, so every rank building the
// same model from the same seed holds identical parameters — the
// distributed-data-parallel invariant.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In: in, Out: out,
		Weight: newParam(name+".weight", in, out),
		Bias:   newParam(name+".bias", 1, out),
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range l.Weight.W.Data {
		l.Weight.W.Data[i] = (2*rng.Float64() - 1) * limit
	}
	return l
}

// SetArena implements ArenaUser.
func (l *Linear) SetArena(a *tensor.Arena) { l.arena = a }

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: Linear %s input width %d, want %d", l.Weight.Name, x.Cols, l.In))
	}
	l.x = x
	y := l.arena.Get(x.Rows, l.Out)
	if tensor.ShouldPack(l.In, l.Out) {
		if l.pw == nil {
			l.pw = tensor.PackB(l.Weight.W)
			l.pwVer = l.Weight.Version()
		} else if l.pwVer != l.Weight.Version() {
			l.pw.Repack(l.Weight.W)
			l.pwVer = l.Weight.Version()
		}
		tensor.MatMulPacked(y, x, l.pw) // fully overwrites y
	} else {
		tensor.MatMul(y, x, l.Weight.W) // fully overwrites y
	}
	tensor.AddRowVector(y, l.Bias.W.Data)
	return y
}

// Backward implements Layer. Parameter gradients accumulate (+=) so a
// layer applied to several batches within one iteration sums their
// contributions; ZeroGrads resets them between iterations.
func (l *Linear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if l.dw == nil {
		// The weight-gradient scratch persists across steps (it has a
		// fixed parameter shape), so it lives outside the arena.
		l.dw = tensor.New(l.In, l.Out)
	}
	tensor.MatMulATB(l.dw, l.x, dy)
	tensor.AddScaled(l.Weight.G, 1, l.dw)
	tensor.ColSums(l.Bias.G.Data, dy)
	dx := l.arena.Get(dy.Rows, l.In)
	tensor.MatMulABT(dx, dy, l.Weight.W) // fully overwrites dx
	return dx
}

// BackwardBatched is the row-block backward: dy is batch vertically
// stacked sample gradients ((batch·n)×Out). The input gradient is a pure
// row map, so it runs over the full stack in one GEMM sweep; the
// parameter-gradient reductions — whose fixed chunk schedule derives from
// the row count — run per sample block in ascending order, so each
// block's reduction geometry, and hence every accumulated bit, matches
// the sequential per-sample oracle exactly. batch == 1 is Backward.
func (l *Linear) BackwardBatched(dy *tensor.Matrix, batch int) *tensor.Matrix {
	if dy.Rows%batch != 0 {
		panic(fmt.Sprintf("nn: batched backward rows %d not divisible by batch %d", dy.Rows, batch))
	}
	if l.dw == nil {
		l.dw = tensor.New(l.In, l.Out)
	}
	per := dy.Rows / batch
	for b := 0; b < batch; b++ {
		l.x.SliceRows(&l.bx, b*per, (b+1)*per)
		dy.SliceRows(&l.bdy, b*per, (b+1)*per)
		tensor.MatMulATB(l.dw, &l.bx, &l.bdy)
		tensor.AddScaled(l.Weight.G, 1, l.dw)
		tensor.ColSums(l.Bias.G.Data, &l.bdy)
	}
	dx := l.arena.Get(dy.Rows, l.In)
	tensor.MatMulABT(dx, dy, l.Weight.W) // fully overwrites dx
	return dx
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// eluForwardTask is the bound ELU forward body (reused, no closure). The
// map lives in the tensor kernel tier (tensor.EluRange), bitwise equal to
// v > 0 ? v : math.Exp(v)-1 on every path, so parallel chunk boundaries
// stay invisible.
type eluForwardTask struct{ x, y *tensor.Matrix }

func (t *eluForwardTask) Run(lo, hi int) {
	tensor.EluRange(t.y.Data, t.x.Data, lo, hi)
}

// eluBackwardTask is the bound ELU backward body: dx = dy where y > 0,
// dy·(y+1) elsewhere (tensor.EluBackRange).
type eluBackwardTask struct{ y, dy, dx *tensor.Matrix }

func (t *eluBackwardTask) Run(lo, hi int) {
	tensor.EluBackRange(t.dx.Data, t.y.Data, t.dy.Data, lo, hi)
}

// ELU applies the exponential linear unit element-wise with alpha = 1.
type ELU struct {
	y     *tensor.Matrix
	arena *tensor.Arena
	fwd   eluForwardTask
	bwd   eluBackwardTask
}

// SetArena implements ArenaUser.
func (e *ELU) SetArena(a *tensor.Arena) { e.arena = a }

// Forward implements Layer. Element-wise, so the parallel partition over
// the flat storage cannot change any result bit.
func (e *ELU) Forward(x *tensor.Matrix) *tensor.Matrix {
	y := e.arena.Get(x.Rows, x.Cols)
	e.fwd.x, e.fwd.y = x, y
	parallel.ForTask(len(x.Data), 4096, &e.fwd)
	e.y = y
	return y
}

// Backward implements Layer.
func (e *ELU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := e.arena.Get(dy.Rows, dy.Cols)
	e.bwd.y, e.bwd.dy, e.bwd.dx = e.y, dy, dx
	parallel.ForTask(len(dy.Data), 4096, &e.bwd)
	return dx
}

// Params implements Layer.
func (e *ELU) Params() []*Param { return nil }

// lnForwardTask is the bound LayerNorm forward body: each row normalizes
// independently (a pure row partition).
type lnForwardTask struct {
	ln   *LayerNorm
	x, y *tensor.Matrix
}

func (t *lnForwardTask) Run(lo, hi int) {
	ln := t.ln
	n := float64(ln.Dim)
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
		ln.invStd[i] = inv
		xh := ln.xhat.Row(i)
		out := t.y.Row(i)
		for j, v := range row {
			xh[j] = (v - mu) * inv
			out[j] = xh[j]*ln.Gain.W.Data[j] + ln.Shift.W.Data[j]
		}
	}
}

// lnBackwardTask is the bound LayerNorm backward reduction: the input
// gradient is a pure row partition; the gain/shift gradients reduce over
// all rows into per-chunk partials merged in fixed order.
type lnBackwardTask struct {
	ln     *LayerNorm
	dy, dx *tensor.Matrix
	// off shifts the row window: the batched backward reduces one sample
	// block at a time (rows [off, off+n) of the stacked matrices) with the
	// block-local chunk schedule of the unbatched pass. 0 for Backward.
	off int
}

func (t *lnBackwardTask) Body(lo, hi int, acc []float64) {
	ln := t.ln
	dim := ln.Dim
	n := float64(dim)
	dGain, dShift := acc[:dim], acc[dim:]
	for p := lo; p < hi; p++ {
		i := t.off + p
		dyr := t.dy.Row(i)
		xh := ln.xhat.Row(i)
		// Parameter gradient partials.
		for j, g := range dyr {
			dGain[j] += g * xh[j]
			dShift[j] += g
		}
		// Input gradient:
		// dx = invStd/n * (n*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat)).
		var sum1, sum2 float64
		for j, g := range dyr {
			dxh := g * ln.Gain.W.Data[j]
			sum1 += dxh
			sum2 += dxh * xh[j]
		}
		inv := ln.invStd[i]
		out := t.dx.Row(i)
		for j, g := range dyr {
			dxh := g * ln.Gain.W.Data[j]
			out[j] = inv / n * (n*dxh - sum1 - xh[j]*sum2)
		}
	}
}

func (t *lnBackwardTask) Merge(acc []float64) {
	ln := t.ln
	dim := ln.Dim
	for j := 0; j < dim; j++ {
		ln.Gain.G.Data[j] += acc[j]
		ln.Shift.G.Data[j] += acc[dim+j]
	}
}

// LayerNorm normalizes each row to zero mean and unit variance, then
// applies a learned affine transform.
type LayerNorm struct {
	Dim   int
	Gain  *Param // 1×Dim
	Shift *Param // 1×Dim

	arena  *tensor.Arena
	xhat   *tensor.Matrix
	invStd []float64
	fwd    lnForwardTask
	bwd    lnBackwardTask
}

// Epsilon guards the variance in LayerNorm, matching the PyTorch
// nn.LayerNorm default the paper's stack uses.
const Epsilon = 1e-5

// NewLayerNorm creates a LayerNorm with unit gain and zero shift.
func NewLayerNorm(name string, dim int) *LayerNorm {
	ln := &LayerNorm{
		Dim:   dim,
		Gain:  newParam(name+".gain", 1, dim),
		Shift: newParam(name+".shift", 1, dim),
	}
	for i := range ln.Gain.W.Data {
		ln.Gain.W.Data[i] = 1
	}
	return ln
}

// SetArena implements ArenaUser.
func (ln *LayerNorm) SetArena(a *tensor.Arena) { ln.arena = a }

// Forward implements Layer.
func (ln *LayerNorm) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != ln.Dim {
		panic(fmt.Sprintf("nn: LayerNorm %s width %d, want %d", ln.Gain.Name, x.Cols, ln.Dim))
	}
	y := ln.arena.Get(x.Rows, x.Cols)
	ln.xhat = ln.arena.Get(x.Rows, x.Cols)
	if ln.arena != nil {
		// A 1-column arena matrix backs the per-row inverse stddev cache.
		ln.invStd = ln.arena.Get(x.Rows, 1).Data
	} else if cap(ln.invStd) < x.Rows {
		ln.invStd = make([]float64, x.Rows)
	} else {
		ln.invStd = ln.invStd[:x.Rows]
	}
	ln.fwd.ln, ln.fwd.x, ln.fwd.y = ln, x, y
	parallel.ForTask(x.Rows, 256, &ln.fwd)
	return y
}

// Backward implements Layer.
func (ln *LayerNorm) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := ln.arena.Get(dy.Rows, dy.Cols)
	ln.bwd.ln, ln.bwd.dy, ln.bwd.dx, ln.bwd.off = ln, dy, dx, 0
	parallel.ReduceWith(dy.Rows, 256, 2*ln.Dim, &ln.bwd)
	return dx
}

// BackwardBatched is the row-block backward over batch stacked samples.
// The input gradient is per-row (any partition yields the same bits); the
// gain/shift reduction runs one sample block at a time in ascending order,
// reproducing the unbatched pass's chunk geometry — and therefore its
// accumulated bits — per sample. batch == 1 is Backward.
func (ln *LayerNorm) BackwardBatched(dy *tensor.Matrix, batch int) *tensor.Matrix {
	if dy.Rows%batch != 0 {
		panic(fmt.Sprintf("nn: batched backward rows %d not divisible by batch %d", dy.Rows, batch))
	}
	dx := ln.arena.Get(dy.Rows, dy.Cols)
	ln.bwd.ln, ln.bwd.dy, ln.bwd.dx = ln, dy, dx
	per := dy.Rows / batch
	for b := 0; b < batch; b++ {
		ln.bwd.off = b * per
		parallel.ReduceWith(per, 256, 2*ln.Dim, &ln.bwd)
	}
	return dx
}

// Params implements Layer.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gain, ln.Shift} }
