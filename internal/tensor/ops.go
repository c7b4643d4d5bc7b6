package tensor

import (
	"fmt"
	"math"
	"sync"

	"meshgnn/internal/parallel"
)

// Kernel parallelization. Every kernel below runs on the intra-rank worker
// pool (internal/parallel). Kernels whose iterations write disjoint output
// rows or elements (the GEMMs over output rows, gathers, element-wise
// maps) use parallel.ForTask and are bitwise-identical to their serial
// forms for any thread count. Kernels that reduce many input rows into one
// output (MatMulATB, ColSums) use parallel.ReduceWith, whose fixed chunk
// schedule and in-order partial merge keep them bitwise-reproducible
// across thread counts in deterministic mode.
//
// Allocation discipline. Every kernel takes its destination as an argument
// (the "*Into" convention — MatMul, GatherRows, and friends have always
// been Into-style) and binds its arguments to a pooled task struct rather
// than a closure, so a kernel call performs no heap allocation in steady
// state. Matrix-returning conveniences (HCat, SplitCols, Clone) remain as
// thin allocating wrappers over the Into kernels for cold call sites.

// forGrain returns a For grain targeting ~16k flops per chunk so chunk
// dispatch overhead stays negligible for narrow rows.
func forGrain(workPerItem int) int {
	if workPerItem < 1 {
		workPerItem = 1
	}
	g := 16384 / workPerItem
	if g < 1 {
		g = 1
	}
	return g
}

// reduceGrain returns a Reduce grain from the problem shape only (never
// the thread count), as the deterministic schedule requires: ~256k flops
// per partial, at least 64 rows.
func reduceGrain(workPerItem int) int {
	if workPerItem < 1 {
		workPerItem = 1
	}
	g := 262144 / workPerItem
	if g < 64 {
		g = 64
	}
	return g
}

// --- GEMM kernels --------------------------------------------------------

type matMulTask struct{ dst, a, b *Matrix }

func (t *matMulTask) Run(lo, hi int) {
	a, b, dst := t.a, t.b, t.dst
	n := b.Cols
	ka := a.Cols
	for i := lo; i < hi; i++ {
		arow := a.Data[i*ka : (i+1)*ka]
		drow := dst.Data[i*n : (i+1)*n]
		clear(drow)
		// Rank-4 register blocking over the inner dimension: each pass
		// streams four b rows against one dst row, quartering the dst
		// load/store traffic that otherwise dominates narrow-row GEMMs.
		// Four products are summed before touching dst (and the zero
		// skip applies per group of four, not per term), so results
		// differ in rounding from the unblocked per-k accumulation —
		// but identically for every thread count and every caller, so
		// the determinism and consistency contracts are unaffected.
		k := 0
		for ; k+4 <= ka; k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
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
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

var matMulPool = sync.Pool{New: func() any { return new(matMulTask) }}

// MatMul computes dst = a·b. dst must be a.Rows×b.Cols and must not alias
// a or b. The inner loops are ordered (i,k,j) so the b and dst accesses
// are unit-stride, which is the cache-friendly form for row-major storage;
// the outer loop is partitioned over dst rows, each written by exactly one
// worker.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	// Above the K·N threshold the packed cache-blocked tier takes over
	// on SIMD hosts (pack.go). The threshold never involves the row
	// count, so a row's kernel is the same however rows are partitioned
	// across ranks and threads, and the SIMD kernels are bitwise-
	// reproducible across thread counts (per-row FMA order fixed by shape
	// alone).
	if usePacked(a.Cols, b.Cols) {
		matMulPacked(dst, a, b, false)
		return
	}
	t := matMulPool.Get().(*matMulTask)
	t.dst, t.a, t.b = dst, a, b
	parallel.ForTask(a.Rows, forGrain(a.Cols*b.Cols), t)
	*t = matMulTask{}
	matMulPool.Put(t)
}

type matMulATBTask struct{ dst, a, b *Matrix }

func (t *matMulATBTask) Body(lo, hi int, acc []float64) {
	a, b := t.a, t.b
	in, n := a.Cols, b.Cols
	// Packed tier: same chunk schedule and merge order, SIMD tile sweep
	// inside the chunk (gemm_packed.go). Gated on the reduction shape
	// (in·n) only, so engagement is independent of the row partition.
	if n >= 8 && usePacked(in, n) {
		t.bodySIMD(lo, hi, acc)
		return
	}
	// Rank-4 blocking over input rows: four (a-row, b-row) pairs stream
	// against the accumulator per pass, quartering the accumulator
	// traffic. The chunk schedule is unchanged, so the summation tree is
	// still a function of the problem shape alone; within a chunk the
	// four-term grouping rounds differently from the unblocked per-row
	// accumulation, identically for every thread count.
	r := lo
	for ; r+4 <= hi; r += 4 {
		a0 := a.Data[r*in : (r+1)*in]
		a1 := a.Data[(r+1)*in : (r+2)*in]
		a2 := a.Data[(r+2)*in : (r+3)*in]
		a3 := a.Data[(r+3)*in : (r+4)*in]
		b0 := b.Data[r*n : (r+1)*n]
		b1 := b.Data[(r+1)*n : (r+2)*n]
		b2 := b.Data[(r+2)*n : (r+3)*n]
		b3 := b.Data[(r+3)*n : (r+4)*n]
		for i := 0; i < in; i++ {
			v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			accRow := acc[i*n : (i+1)*n]
			for j, bv := range b0 {
				accRow[j] += v0*bv + v1*b1[j] + v2*b2[j] + v3*b3[j]
			}
		}
	}
	for ; r < hi; r++ {
		arow := a.Data[r*in : (r+1)*in]
		brow := b.Data[r*n : (r+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			accRow := acc[i*n : (i+1)*n]
			for j, bv := range brow {
				accRow[j] += av * bv
			}
		}
	}
}

func (t *matMulATBTask) Merge(acc []float64) {
	for i, v := range acc {
		t.dst.Data[i] += v
	}
}

var matMulATBPool = sync.Pool{New: func() any { return new(matMulATBTask) }}

// MatMulATB computes dst = aᵀ·b, used for weight gradients (dW = xᵀ·dy).
// dst must be a.Cols×b.Cols. Every input row contributes to every output
// row, so this is a true reduction: row chunks accumulate into private
// dst-shaped partials that merge in fixed chunk order.
func MatMulATB(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATB shape mismatch (%dx%d)ᵀ·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.Zero()
	in, n := a.Cols, b.Cols
	t := matMulATBPool.Get().(*matMulATBTask)
	t.dst, t.a, t.b = dst, a, b
	parallel.ReduceWith(a.Rows, reduceGrain(in*n), in*n, t)
	*t = matMulATBTask{}
	matMulATBPool.Put(t)
}

type matMulABTTask struct{ dst, a, b *Matrix }

func (t *matMulABTTask) Run(lo, hi int) {
	a, b, dst := t.a, t.b, t.dst
	kb := b.Cols
	// Four dot products per pass share one streaming read of the a row;
	// each accumulator sums in plain k order, so every output is bitwise
	// the one the unblocked loop produces.
	for i := lo; i < hi; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0 := b.Data[j*kb : (j+1)*kb]
			b1 := b.Data[(j+1)*kb : (j+2)*kb]
			b2 := b.Data[(j+2)*kb : (j+3)*kb]
			b3 := b.Data[(j+3)*kb : (j+4)*kb]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			brow := b.Data[j*kb : (j+1)*kb]
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			drow[j] = s
		}
	}
}

var matMulABTPool = sync.Pool{New: func() any { return new(matMulABTTask) }}

// MatMulABT computes dst = a·bᵀ, used for input gradients (dx = dy·Wᵀ).
// dst must be a.Rows×b.Rows. Partitioned over dst rows.
func MatMulABT(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABT shape mismatch (%dx%d)·(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	// Packed tier: bᵀ packs into the same panel layout (pack.go), so the
	// identical microkernel serves this form.
	if usePacked(a.Cols, b.Rows) {
		matMulPacked(dst, a, b, true)
		return
	}
	t := matMulABTPool.Get().(*matMulABTTask)
	t.dst, t.a, t.b = dst, a, b
	parallel.ForTask(a.Rows, forGrain(a.Cols*b.Rows), t)
	*t = matMulABTTask{}
	matMulABTPool.Put(t)
}

// --- Row/column kernels --------------------------------------------------

type addRowVectorTask struct {
	m *Matrix
	v []float64
}

func (t *addRowVectorTask) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		row := t.m.Row(i)
		for j, bv := range t.v {
			row[j] += bv
		}
	}
}

var addRowVectorPool = sync.Pool{New: func() any { return new(addRowVectorTask) }}

// AddRowVector adds the length-Cols vector v to every row of m in place.
func AddRowVector(m *Matrix, v []float64) {
	if len(v) != m.Cols {
		panic("tensor: AddRowVector length mismatch")
	}
	t := addRowVectorPool.Get().(*addRowVectorTask)
	t.m, t.v = m, v
	parallel.ForTask(m.Rows, forGrain(m.Cols), t)
	*t = addRowVectorTask{}
	addRowVectorPool.Put(t)
}

type colSumsTask struct {
	dst []float64
	m   *Matrix
}

func (t *colSumsTask) Body(lo, hi int, acc []float64) {
	cols := t.m.Cols
	for i := lo; i < hi; i++ {
		row := t.m.Data[i*cols : (i+1)*cols]
		for j, v := range row {
			acc[j] += v
		}
	}
}

func (t *colSumsTask) Merge(acc []float64) {
	for j, v := range acc {
		t.dst[j] += v
	}
}

var colSumsPool = sync.Pool{New: func() any { return new(colSumsTask) }}

// ColSums accumulates the column sums of m into dst (dst += sum over rows),
// used for bias gradients. A reduction over rows: chunk partials merge in
// fixed order.
func ColSums(dst []float64, m *Matrix) {
	if len(dst) != m.Cols {
		panic("tensor: ColSums length mismatch")
	}
	t := colSumsPool.Get().(*colSumsTask)
	t.dst, t.m = dst, m
	parallel.ReduceWith(m.Rows, reduceGrain(m.Cols), m.Cols, t)
	*t = colSumsTask{}
	colSumsPool.Put(t)
}

// --- Element-wise kernels ------------------------------------------------

// elemGrain is the For grain for 1-flop element-wise kernels.
const elemGrain = 8192

type addTask struct{ dst, a, b *Matrix }

func (t *addTask) Run(lo, hi int) {
	d, a, b := t.dst.Data, t.a.Data, t.b.Data
	for i := lo; i < hi; i++ {
		d[i] = a[i] + b[i]
	}
}

var addPool = sync.Pool{New: func() any { return new(addTask) }}

// Add computes dst = a + b element-wise; all three must share a shape.
// dst may alias a or b.
func Add(dst, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("tensor: Add shape mismatch")
	}
	t := addPool.Get().(*addTask)
	t.dst, t.a, t.b = dst, a, b
	parallel.ForTask(len(dst.Data), elemGrain, t)
	*t = addTask{}
	addPool.Put(t)
}

type addScaledTask struct {
	dst, src *Matrix
	alpha    float64
}

func (t *addScaledTask) Run(lo, hi int) {
	d, s := t.dst.Data, t.src.Data
	if t.alpha == 1 {
		// Residual connections and gradient accumulations use alpha == 1;
		// the plain += form saves a multiply per element and is bitwise
		// identical (1*x == x exactly).
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

var addScaledPool = sync.Pool{New: func() any { return new(addScaledTask) }}

// AddScaled computes dst += alpha*src element-wise, with a fast path for
// the ubiquitous alpha == 1 accumulation.
func AddScaled(dst *Matrix, alpha float64, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: AddScaled shape mismatch")
	}
	t := addScaledPool.Get().(*addScaledTask)
	t.dst, t.src, t.alpha = dst, src, alpha
	parallel.ForTask(len(dst.Data), elemGrain, t)
	*t = addScaledTask{}
	addScaledPool.Put(t)
}

type addScaledViewTask struct {
	dst   *Matrix
	src   View
	alpha float64
}

func (t *addScaledViewTask) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		drow := t.dst.Row(i)
		srow := t.src.Row(i)
		if t.alpha == 1 {
			for j, v := range srow {
				drow[j] += v
			}
			continue
		}
		for j, v := range srow {
			drow[j] += t.alpha * v
		}
	}
}

var addScaledViewPool = sync.Pool{New: func() any { return new(addScaledViewTask) }}

// AddScaledView computes dst += alpha*src where src is a column view:
// the gradient-splitting counterpart of AddScaled that consumes one
// column block of a wide matrix without copying it out first.
func AddScaledView(dst *Matrix, alpha float64, src View) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: AddScaledView shape mismatch")
	}
	t := addScaledViewPool.Get().(*addScaledViewTask)
	t.dst, t.src, t.alpha = dst, src, alpha
	parallel.ForTask(dst.Rows, forGrain(dst.Cols), t)
	*t = addScaledViewTask{}
	addScaledViewPool.Put(t)
}

type scaleTask struct {
	m     *Matrix
	alpha float64
}

func (t *scaleTask) Run(lo, hi int) {
	d, alpha := t.m.Data, t.alpha
	for i := lo; i < hi; i++ {
		d[i] *= alpha
	}
}

var scalePool = sync.Pool{New: func() any { return new(scaleTask) }}

// Scale multiplies every entry of m by alpha in place.
func Scale(m *Matrix, alpha float64) {
	t := scalePool.Get().(*scaleTask)
	t.m, t.alpha = m, alpha
	parallel.ForTask(len(m.Data), elemGrain, t)
	*t = scaleTask{}
	scalePool.Put(t)
}

// --- Copy / gather / scatter kernels -------------------------------------

type cloneIntoTask struct{ dst, src *Matrix }

func (t *cloneIntoTask) Run(lo, hi int) {
	copy(t.dst.Data[lo:hi], t.src.Data[lo:hi])
}

var cloneIntoPool = sync.Pool{New: func() any { return new(cloneIntoTask) }}

// CloneInto copies src into dst (shapes must match): the workspace-reuse
// form of Clone.
func CloneInto(dst, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CloneInto shape mismatch %dx%d vs %dx%d",
			dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	t := cloneIntoPool.Get().(*cloneIntoTask)
	t.dst, t.src = dst, src
	parallel.ForTask(len(dst.Data), elemGrain, t)
	*t = cloneIntoTask{}
	cloneIntoPool.Put(t)
}

type copyViewIntoTask struct {
	dst *Matrix
	src View
}

func (t *copyViewIntoTask) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		copy(t.dst.Row(i), t.src.Row(i))
	}
}

var copyViewIntoPool = sync.Pool{New: func() any { return new(copyViewIntoTask) }}

// CopyViewInto materializes a column view into dst (shapes must match) —
// the Into form of one SplitCols output.
func CopyViewInto(dst *Matrix, src View) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyViewInto shape mismatch %dx%d vs %dx%d",
			dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	t := copyViewIntoPool.Get().(*copyViewIntoTask)
	t.dst, t.src = dst, src
	parallel.ForTask(dst.Rows, forGrain(dst.Cols), t)
	*t = copyViewIntoTask{}
	copyViewIntoPool.Put(t)
}

type gatherRowsTask struct {
	dst, src *Matrix
	idx      []int
}

func (t *gatherRowsTask) Run(lo, hi int) {
	for k := lo; k < hi; k++ {
		copy(t.dst.Row(k), t.src.Row(t.idx[k]))
	}
}

var gatherRowsPool = sync.Pool{New: func() any { return new(gatherRowsTask) }}

// GatherRows copies rows src[idx[k]] into dst[k] for each k.
// dst must have len(idx) rows and src.Cols columns. Indices are validated
// up front so a bad index fails with a diagnosable error instead of a
// slice panic inside a worker.
func GatherRows(dst, src *Matrix, idx []int) {
	if dst.Rows != len(idx) || dst.Cols != src.Cols {
		panic("tensor: GatherRows shape mismatch")
	}
	for k, i := range idx {
		if i < 0 || i >= src.Rows {
			panic(fmt.Sprintf("tensor: GatherRows index %d out of range [0,%d) at position %d",
				i, src.Rows, k))
		}
	}
	t := gatherRowsPool.Get().(*gatherRowsTask)
	t.dst, t.src, t.idx = dst, src, idx
	parallel.ForTask(len(idx), forGrain(src.Cols), t)
	*t = gatherRowsTask{}
	gatherRowsPool.Put(t)
}

// ScatterAddRows adds src[k] into dst[idx[k]] for each k: the adjoint of
// GatherRows. Arbitrary idx values may collide on a destination row, so
// this general form runs serially in k order; receiver-grouped workloads
// should use ScatterAddRowsGrouped, which parallelizes without atomics.
func ScatterAddRows(dst, src *Matrix, idx []int) {
	if src.Rows != len(idx) || dst.Cols != src.Cols {
		panic("tensor: ScatterAddRows shape mismatch")
	}
	for k, i := range idx {
		if i < 0 || i >= dst.Rows {
			panic(fmt.Sprintf("tensor: ScatterAddRows index %d out of range [0,%d) at position %d",
				i, dst.Rows, k))
		}
	}
	for k, i := range idx {
		drow := dst.Row(i)
		srow := src.Row(k)
		for j, v := range srow {
			drow[j] += v
		}
	}
}

type scatterGroupedTask struct {
	dst          *Matrix
	src          View
	start, order []int
}

func (t *scatterGroupedTask) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		drow := t.dst.Row(i)
		for p := t.start[i]; p < t.start[i+1]; p++ {
			k := p
			if t.order != nil {
				k = t.order[p]
			}
			srow := t.src.Row(k)
			for j, v := range srow {
				drow[j] += v
			}
		}
	}
}

var scatterGroupedPool = sync.Pool{New: func() any { return new(scatterGroupedTask) }}

// ScatterAddRowsGrouped adds src rows into dst following a receiver-grouped
// CSR layout: for destination row i, the source rows order[start[i]:start[i+1]]
// accumulate into dst[i] in listed order. order == nil means the identity
// (source rows start[i]..start[i+1] are already receiver-contiguous).
//
// Because each destination row is owned by exactly one worker, the scatter
// parallelizes without atomics, and because each row's contributions apply
// in listed order, the result is bitwise-identical to the equivalent
// serial ScatterAddRows whenever order lists source rows in ascending
// order per receiver.
func ScatterAddRowsGrouped(dst, src *Matrix, start, order []int) {
	ScatterAddRowsGroupedView(dst, src.Full(), start, order)
}

// ScatterAddRowsGroupedView is ScatterAddRowsGrouped with a column view as
// the source, so a column block of a wide gradient matrix scatters without
// being copied out first.
func ScatterAddRowsGroupedView(dst *Matrix, src View, start, order []int) {
	if len(start) != dst.Rows+1 {
		panic(fmt.Sprintf("tensor: ScatterAddRowsGrouped start length %d, want %d",
			len(start), dst.Rows+1))
	}
	if src.Cols != dst.Cols {
		panic(fmt.Sprintf("tensor: ScatterAddRowsGrouped width %d vs %d", src.Cols, dst.Cols))
	}
	limit := src.Rows
	if order != nil {
		limit = len(order)
		for p, k := range order {
			if k < 0 || k >= src.Rows {
				panic(fmt.Sprintf("tensor: ScatterAddRowsGrouped order index %d out of range [0,%d) at position %d",
					k, src.Rows, p))
			}
		}
	}
	if start[0] < 0 || start[dst.Rows] > limit {
		panic(fmt.Sprintf("tensor: ScatterAddRowsGrouped start range [%d,%d] outside %d source entries",
			start[0], start[dst.Rows], limit))
	}
	for i := 0; i < dst.Rows; i++ {
		if start[i] > start[i+1] {
			panic(fmt.Sprintf("tensor: ScatterAddRowsGrouped start not monotonic at row %d (%d > %d)",
				i, start[i], start[i+1]))
		}
	}
	t := scatterGroupedPool.Get().(*scatterGroupedTask)
	t.dst, t.src, t.start, t.order = dst, src, start, order
	parallel.ForTask(dst.Rows, forGrain(2*dst.Cols), t)
	*t = scatterGroupedTask{}
	scatterGroupedPool.Put(t)
}

// --- Concatenation / splitting -------------------------------------------

type hcatTask struct {
	dst *Matrix
	// ms is a pooled copy of the source table, so the caller's variadic
	// slice never escapes and the kernel stays allocation-free.
	ms []*Matrix
}

func (t *hcatTask) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		drow := t.dst.Row(i)
		off := 0
		for _, m := range t.ms {
			copy(drow[off:off+m.Cols], m.Row(i))
			off += m.Cols
		}
	}
}

var hcatPool = sync.Pool{New: func() any { return new(hcatTask) }}

// HCatInto concatenates the given matrices horizontally into dst, which
// must have the shared row count and the summed column count.
func HCatInto(dst *Matrix, ms ...*Matrix) {
	cols := 0
	for _, m := range ms {
		if m.Rows != dst.Rows {
			panic("tensor: HCatInto row mismatch")
		}
		cols += m.Cols
	}
	if cols != dst.Cols {
		panic(fmt.Sprintf("tensor: HCatInto columns %d, want %d", dst.Cols, cols))
	}
	t := hcatPool.Get().(*hcatTask)
	t.dst = dst
	t.ms = append(t.ms[:0], ms...)
	parallel.ForTask(dst.Rows, forGrain(dst.Cols), t)
	t.dst = nil
	clear(t.ms)
	t.ms = t.ms[:0]
	hcatPool.Put(t)
}

// HCat concatenates the given matrices horizontally (all must share Rows),
// allocating the result.
func HCat(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		cols += m.Cols
	}
	out := New(rows, cols)
	HCatInto(out, ms...)
	return out
}

// SplitColsView splits m horizontally into len(widths) column views; the
// zero-copy inverse of HCat. The views alias m.
func SplitColsView(m *Matrix, widths ...int) []View {
	total := 0
	for _, w := range widths {
		total += w
	}
	if total != m.Cols {
		panic("tensor: SplitColsView widths do not sum to Cols")
	}
	out := make([]View, len(widths))
	off := 0
	for k, w := range widths {
		out[k] = m.View(off, w)
		off += w
	}
	return out
}

// SplitCols splits m horizontally into len(widths) freshly allocated
// matrices whose column counts are widths[i]; the copying inverse of HCat.
// Hot paths use Matrix.View / SplitColsView instead.
func SplitCols(m *Matrix, widths ...int) []*Matrix {
	views := SplitColsView(m, widths...)
	out := make([]*Matrix, len(views))
	for k, v := range views {
		out[k] = New(v.Rows, v.Cols)
		CopyViewInto(out[k], v)
	}
	return out
}

// --- Reductions to scalars -----------------------------------------------

type frobeniusTask struct {
	m *Matrix
	s float64
}

func (t *frobeniusTask) Body(lo, hi int, acc []float64) {
	d := t.m.Data
	for i := lo; i < hi; i++ {
		v := d[i]
		acc[0] += v * v
	}
}

func (t *frobeniusTask) Merge(acc []float64) { t.s += acc[0] }

var frobeniusPool = sync.Pool{New: func() any { return new(frobeniusTask) }}

// Frobenius returns the Frobenius norm of m.
func Frobenius(m *Matrix) float64 {
	t := frobeniusPool.Get().(*frobeniusTask)
	t.m, t.s = m, 0
	parallel.ReduceWith(len(m.Data), reduceGrain(2), 1, t)
	s := t.s
	*t = frobeniusTask{}
	frobeniusPool.Put(t)
	return math.Sqrt(s)
}

type dotTask struct {
	a, b *Matrix
	s    float64
}

func (t *dotTask) Body(lo, hi int, acc []float64) {
	ad, bd := t.a.Data, t.b.Data
	for i := lo; i < hi; i++ {
		acc[0] += ad[i] * bd[i]
	}
}

func (t *dotTask) Merge(acc []float64) { t.s += acc[0] }

var dotPool = sync.Pool{New: func() any { return new(dotTask) }}

// Dot returns the inner product of the flattened matrices.
func Dot(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: Dot shape mismatch")
	}
	t := dotPool.Get().(*dotTask)
	t.a, t.b, t.s = a, b, 0
	parallel.ReduceWith(len(a.Data), reduceGrain(2), 1, t)
	s := t.s
	*t = dotTask{}
	dotPool.Put(t)
	return s
}
