package nn

import (
	"fmt"
	"math/rand"

	"meshgnn/internal/tensor"
)

// MLP is the multi-layer perceptron block used throughout the paper's GNN:
//
//	Linear(in→H) · ELU · [Linear(H→H) · ELU]^h · Linear(H→out) [· LayerNorm]
//
// where h is the "MLP hidden layers" count from the paper's Table I. The
// trailing LayerNorm is applied everywhere except the decoder, following
// the encode-process-decode convention. With a 4-wide edge-feature input
// this architecture reproduces Table I's trainable-parameter counts
// exactly (3,979 small / 91,459 large).
type MLP struct {
	In, Hidden, Out int
	layers          []Layer
}

// NewMLP constructs the block. hidden is h (the number of H→H inner
// linears); norm appends a trailing LayerNorm(out).
func NewMLP(name string, in, hiddenDim, out, hidden int, norm bool, rng *rand.Rand) *MLP {
	if hidden < 0 {
		panic(fmt.Sprintf("nn: negative hidden layer count %d", hidden))
	}
	m := &MLP{In: in, Hidden: hiddenDim, Out: out}
	m.layers = append(m.layers, NewLinear(fmt.Sprintf("%s.lin0", name), in, hiddenDim, rng), &ELU{})
	for i := 0; i < hidden; i++ {
		m.layers = append(m.layers,
			NewLinear(fmt.Sprintf("%s.lin%d", name, i+1), hiddenDim, hiddenDim, rng), &ELU{})
	}
	m.layers = append(m.layers, NewLinear(fmt.Sprintf("%s.out", name), hiddenDim, out, rng))
	if norm {
		m.layers = append(m.layers, NewLayerNorm(fmt.Sprintf("%s.norm", name), out))
	}
	return m
}

// SetArena implements ArenaUser: the block's layers draw activations and
// gradients from a, so steady-state forward/backward passes allocate
// nothing.
func (m *MLP) SetArena(a *tensor.Arena) {
	for _, l := range m.layers {
		if au, ok := l.(ArenaUser); ok {
			au.SetArena(a)
		}
	}
}

// Forward implements Layer.
func (m *MLP) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range m.layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer.
func (m *MLP) Backward(dy *tensor.Matrix) *tensor.Matrix { return m.BackwardBatched(dy, 1) }

// BatchBackward is implemented by layers whose backward distinguishes the
// row-block (batched) layout: parameter-gradient reductions run per
// sample block so accumulation is bitwise the sequential per-sample
// oracle. Pure row maps (ELU) need no batched variant.
type BatchBackward interface {
	BackwardBatched(dy *tensor.Matrix, batch int) *tensor.Matrix
}

// BackwardBatched propagates a stacked gradient of batch samples through
// the block: layers with block-sensitive parameter reductions (Linear,
// LayerNorm) take the batched path; element-wise layers run stacked
// unchanged. Forward must have been called on the matching stacked input.
func (m *MLP) BackwardBatched(dy *tensor.Matrix, batch int) *tensor.Matrix {
	for i := len(m.layers) - 1; i >= 0; i-- {
		if bb, ok := m.layers[i].(BatchBackward); ok {
			dy = bb.BackwardBatched(dy, batch)
		} else {
			dy = m.layers[i].Backward(dy)
		}
	}
	return dy
}

// Params implements Layer.
func (m *MLP) Params() []*Param {
	var out []*Param
	for _, l := range m.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// CountParams sums scalar parameters over a parameter list.
func CountParams(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Count()
	}
	return n
}

// ZeroGrads clears all gradient accumulators.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.G.Zero()
	}
}

// FlattenGrads copies all gradients into one contiguous buffer (allocating
// if buf is too small) — the single-bucket equivalent of DDP's gradient
// flattening.
func FlattenGrads(params []*Param, buf []float64) []float64 {
	n := CountParams(params)
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	off := 0
	for _, p := range params {
		copy(buf[off:off+p.Count()], p.G.Data)
		off += p.Count()
	}
	return buf
}

// UnflattenGrads writes buf back into the gradient tensors.
func UnflattenGrads(params []*Param, buf []float64) {
	off := 0
	for _, p := range params {
		copy(p.G.Data, buf[off:off+p.Count()])
		off += p.Count()
	}
}

// CopyParams copies parameter values from src to dst (shapes must match);
// used to clone a model across configurations for consistency tests.
func CopyParams(dst, src []*Param) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: CopyParams length mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i].W.CopyFrom(src[i].W)
	}
}
