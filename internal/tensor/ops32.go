package tensor

import (
	"fmt"
	"sync"

	"meshgnn/internal/parallel"
)

// float32 kernels for the forward-only serving twin. The set is
// deliberately the forward closure only — GEMM, bias add, residual add,
// concatenation — with no gradient-side counterparts; training stays in
// float64. Like the f64 kernels, every op partitions disjoint output rows
// over parallel.ForTask with a fixed per-row accumulation order, so f32
// serving results are bitwise-reproducible across thread counts too (the
// tolerance gate against the f64 oracle bounds the precision loss, not
// run-to-run noise).

type matMul32Task struct{ dst, a, b *Matrix32 }

func (t *matMul32Task) Run(lo, hi int) {
	a, b, dst := t.a, t.b, t.dst
	n := b.Cols
	ka := a.Cols
	for i := lo; i < hi; i++ {
		arow := a.Data[i*ka : (i+1)*ka]
		drow := dst.Data[i*n : (i+1)*n]
		clear(drow)
		k := 0
		for ; k+4 <= ka; k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			b0 := b.Data[k*n : (k+1)*n]
			b1 := b.Data[(k+1)*n : (k+2)*n]
			b2 := b.Data[(k+2)*n : (k+3)*n]
			b3 := b.Data[(k+3)*n : (k+4)*n]
			for j, bv := range b0 {
				drow[j] += a0*bv + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; k < ka; k++ {
			av := arow[k]
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

var matMul32Pool = sync.Pool{New: func() any { return new(matMul32Task) }}

// MatMul32 computes dst = a·b in float32. Above the K·N threshold, on
// AVX2 hardware, the packed f32 tier takes over (gemm32_packed.go);
// otherwise the rank-4 scalar kernel runs.
func MatMul32(dst, a, b *Matrix32) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul32 shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if usePacked(a.Cols, b.Cols) {
		pb := getPackScratch32(a.Cols, b.Cols, packNR32)
		pb.packFrom(b)
		matMul32Packed(dst, a, pb)
		putPackScratch32(pb)
		return
	}
	t := matMul32Pool.Get().(*matMul32Task)
	t.dst, t.a, t.b = dst, a, b
	parallel.ForTask(a.Rows, forGrain(a.Cols*b.Cols), t)
	*t = matMul32Task{}
	matMul32Pool.Put(t)
}

type addRowVector32Task struct {
	m *Matrix32
	v []float32
}

func (t *addRowVector32Task) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		row := t.m.Row(i)
		for j, bv := range t.v {
			row[j] += bv
		}
	}
}

var addRowVector32Pool = sync.Pool{New: func() any { return new(addRowVector32Task) }}

// AddRowVector32 adds the length-Cols vector v to every row of m in place.
func AddRowVector32(m *Matrix32, v []float32) {
	if len(v) != m.Cols {
		panic("tensor: AddRowVector32 length mismatch")
	}
	t := addRowVector32Pool.Get().(*addRowVector32Task)
	t.m, t.v = m, v
	parallel.ForTask(m.Rows, forGrain(m.Cols), t)
	*t = addRowVector32Task{}
	addRowVector32Pool.Put(t)
}

type addScaled32Task struct {
	dst, src *Matrix32
	alpha    float32
}

func (t *addScaled32Task) Run(lo, hi int) {
	d, s := t.dst.Data, t.src.Data
	if t.alpha == 1 {
		for i := lo; i < hi; i++ {
			d[i] += s[i]
		}
		return
	}
	alpha := t.alpha
	for i := lo; i < hi; i++ {
		d[i] += alpha * s[i]
	}
}

var addScaled32Pool = sync.Pool{New: func() any { return new(addScaled32Task) }}

// AddScaled32 computes dst += alpha*src element-wise.
func AddScaled32(dst *Matrix32, alpha float32, src *Matrix32) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: AddScaled32 shape mismatch")
	}
	t := addScaled32Pool.Get().(*addScaled32Task)
	t.dst, t.src, t.alpha = dst, src, alpha
	parallel.ForTask(len(dst.Data), elemGrain, t)
	*t = addScaled32Task{}
	addScaled32Pool.Put(t)
}

type cloneInto32Task struct{ dst, src *Matrix32 }

func (t *cloneInto32Task) Run(lo, hi int) {
	copy(t.dst.Data[lo:hi], t.src.Data[lo:hi])
}

var cloneInto32Pool = sync.Pool{New: func() any { return new(cloneInto32Task) }}

// CloneInto32 copies src into dst (shapes must match).
func CloneInto32(dst, src *Matrix32) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CloneInto32 shape mismatch %dx%d vs %dx%d",
			dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	t := cloneInto32Pool.Get().(*cloneInto32Task)
	t.dst, t.src = dst, src
	parallel.ForTask(len(dst.Data), elemGrain, t)
	*t = cloneInto32Task{}
	cloneInto32Pool.Put(t)
}

type hcat32Task struct {
	dst *Matrix32
	ms  []*Matrix32
}

func (t *hcat32Task) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		drow := t.dst.Row(i)
		off := 0
		for _, m := range t.ms {
			copy(drow[off:off+m.Cols], m.Row(i))
			off += m.Cols
		}
	}
}

var hcat32Pool = sync.Pool{New: func() any { return new(hcat32Task) }}

// HCatInto32 concatenates the given matrices horizontally into dst.
func HCatInto32(dst *Matrix32, ms ...*Matrix32) {
	cols := 0
	for _, m := range ms {
		if m.Rows != dst.Rows {
			panic("tensor: HCatInto32 row mismatch")
		}
		cols += m.Cols
	}
	if cols != dst.Cols {
		panic(fmt.Sprintf("tensor: HCatInto32 columns %d, want %d", dst.Cols, cols))
	}
	t := hcat32Pool.Get().(*hcat32Task)
	t.dst = dst
	t.ms = append(t.ms[:0], ms...)
	parallel.ForTask(dst.Rows, forGrain(dst.Cols), t)
	t.dst = nil
	clear(t.ms)
	t.ms = t.ms[:0]
	hcat32Pool.Put(t)
}
