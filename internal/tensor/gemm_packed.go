package tensor

import (
	"fmt"
	"sync"

	"meshgnn/internal/parallel"
)

// Packed GEMM drivers (f64). See pack.go for the tier's layout, blocking,
// and determinism contract.

// ncPanels bounds how many NR-wide panels are streamed per (kc, nc)
// block so the live panel group stays within packNcBudget bytes.
func ncPanels(kcLen, nr int) int {
	per := kcLen * nr * 8
	if per <= 0 {
		return 1
	}
	g := packNcBudget / per
	if g < 1 {
		g = 1
	}
	return g
}

// packedMMTask computes dst[lo:hi] = a[lo:hi]·B from a packed B operand.
// plainTail selects the MatMulABT tail accumulation order (plain
// ascending k) over the MatMul one (rank-4 grouped) so each caller's
// remainder columns keep the bits of its legacy kernel.
type packedMMTask struct {
	dst, a    *Matrix
	pb        *PackedB
	plainTail bool
}

func (t *packedMMTask) Run(lo, hi int) {
	t.runSIMD(lo, hi)
	if t.pb.N%packNR != 0 {
		t.scalarTail(lo, hi)
	}
}

// runSIMD sweeps the microkernels over the chunk's rows: 8-row zmm tiles
// on the AVX-512 tier, then 4-row and 1-row ymm tiles for the rest. All
// three perform the identical per-row operation sequence, so a row's bits
// never depend on where chunk boundaries fall or which tier ran.
func (t *packedMMTask) runSIMD(lo, hi int) {
	pb := t.pb
	k, n := pb.K, pb.N
	np := n / packNR
	ka, dn := t.a.Cols, t.dst.Cols
	ad, dd := t.a.Data, t.dst.Data
	arow, crow := int64(ka*8), int64(dn*8)
	for kc0 := 0; kc0 < k; kc0 += packKc {
		kcLen := min(packKc, k-kc0)
		var accF int64
		if kc0 > 0 {
			accF = 1
		}
		kc := int64(kcLen)
		for p0 := 0; p0 < np; p0 += ncPanels(kcLen, packNR) {
			p1 := min(p0+ncPanels(kcLen, packNR), np)
			i := lo
			if simd512 {
				for ; i+8 <= hi; i += 8 {
					a0 := &ad[i*ka+kc0]
					for p := p0; p < p1; p++ {
						dgemmTile8Z(kc, a0, arow, 8, &pb.panels[(p*k+kc0)*8], 64, &dd[i*dn+p*8], crow, accF)
					}
				}
			}
			for ; i+4 <= hi; i += 4 {
				a0 := &ad[i*ka+kc0]
				a1 := &ad[(i+1)*ka+kc0]
				a2 := &ad[(i+2)*ka+kc0]
				a3 := &ad[(i+3)*ka+kc0]
				for p := p0; p < p1; p++ {
					bpp := &pb.panels[(p*k+kc0)*8]
					dgemmTile4(kc, a0, a1, a2, a3, 8, bpp, 64,
						&dd[i*dn+p*8], &dd[(i+1)*dn+p*8], &dd[(i+2)*dn+p*8], &dd[(i+3)*dn+p*8], accF)
				}
			}
			for ; i < hi; i++ {
				a0 := &ad[i*ka+kc0]
				for p := p0; p < p1; p++ {
					dgemmTile1(kc, a0, 8, &pb.panels[(p*k+kc0)*8], 64, &dd[i*dn+p*8], accF)
				}
			}
		}
	}
}

// scalarTail computes the N mod NR remainder columns from the packed
// column strips, over the full K extent, with the owning kernel's legacy
// accumulation order.
func (t *packedMMTask) scalarTail(lo, hi int) {
	pb := t.pb
	k, n := pb.K, pb.N
	j0 := (n / packNR) * packNR
	ka, dn := t.a.Cols, t.dst.Cols
	ad, dd := t.a.Data, t.dst.Data
	for i := lo; i < hi; i++ {
		arow := ad[i*ka : i*ka+k]
		for jt := 0; jt < n-j0; jt++ {
			strip := pb.tail[jt*k : (jt+1)*k]
			var s float64
			if t.plainTail {
				for kk, av := range arow {
					s += av * strip[kk]
				}
			} else {
				kk := 0
				for ; kk+4 <= k; kk += 4 {
					s += arow[kk]*strip[kk] + arow[kk+1]*strip[kk+1] +
						arow[kk+2]*strip[kk+2] + arow[kk+3]*strip[kk+3]
				}
				for ; kk < k; kk++ {
					s += arow[kk] * strip[kk]
				}
			}
			dd[i*dn+j0+jt] = s
		}
	}
}

var packedMMPool = sync.Pool{New: func() any { return new(packedMMTask) }}

// matMulPacked runs dst = a·B through the packed tier, packing the B
// operand (b itself, or bᵀ when transposed) into pooled scratch first.
func matMulPacked(dst, a, b *Matrix, transposed bool) {
	n := b.Cols
	if transposed {
		n = b.Rows
	}
	pb := getPackScratch(a.Cols, n)
	if transposed {
		pb.packFromT(b)
	} else {
		pb.packFrom(b)
	}
	t := packedMMPool.Get().(*packedMMTask)
	t.dst, t.a, t.pb, t.plainTail = dst, a, pb, transposed
	parallel.ForTask(a.Rows, forGrain(a.Cols*n), t)
	*t = packedMMTask{}
	packedMMPool.Put(t)
	putPackScratch(pb)
}

// MatMulPacked computes dst = a·B from a pre-packed B operand (PackB /
// PackBWith): the pack-once form for weights reused across many calls.
// The result is bitwise-identical to MatMul on the unpacked operand when
// the packed tier would engage for its shape; for smaller shapes it still
// runs the packed kernels (the caller opted in by packing). Requires the
// SIMD tier; callers pack only when ShouldPack reports true.
func MatMulPacked(dst, a *Matrix, pb *PackedB) {
	if a.Cols != pb.K || dst.Rows != a.Rows || dst.Cols != pb.N {
		panic(fmt.Sprintf("tensor: MatMulPacked shape mismatch (%dx%d)·packed(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, pb.K, pb.N, dst.Rows, dst.Cols))
	}
	if !simdGEMM {
		panic("tensor: MatMulPacked requires the SIMD kernel tier")
	}
	t := packedMMPool.Get().(*packedMMTask)
	t.dst, t.a, t.pb, t.plainTail = dst, a, pb, false
	parallel.ForTask(a.Rows, forGrain(a.Cols*pb.N), t)
	*t = packedMMTask{}
	packedMMPool.Put(t)
}

// bodySIMD is the packed-tier body of the MatMulATB reduction: the same
// microkernels walking DOWN the chunk's rows via strides (a columns
// become tile rows, raw b rows are already panel-shaped). The chunk
// schedule, accumulator layout, and merge order of the surrounding
// ReduceWith are untouched, so determinism across thread counts is
// inherited; within a chunk every a-column meets the identical per-column
// sequence whether it lands in an 8-, 4- or 1-wide tile.
func (t *matMulATBTask) bodySIMD(lo, hi int, acc []float64) {
	a, b := t.a, t.b
	in, n := a.Cols, b.Cols
	kc := int64(hi - lo)
	ad, bd := a.Data, b.Data
	// bstr is also the row stride of acc, whose rows are n wide like b's.
	astr, bstr := int64(in*8), int64(n*8)
	np8 := (n / 8) * 8
	i := 0
	if simd512 {
		for ; i+8 <= in; i += 8 {
			for p := 0; p < np8; p += 8 {
				dgemmTile8Z(kc, &ad[lo*in+i], 8, astr, &bd[lo*n+p], bstr, &acc[i*n+p], bstr, 0)
			}
		}
	}
	for ; i+4 <= in; i += 4 {
		for p := 0; p < np8; p += 8 {
			dgemmTile4(kc,
				&ad[lo*in+i], &ad[lo*in+i+1], &ad[lo*in+i+2], &ad[lo*in+i+3], astr,
				&bd[lo*n+p], bstr,
				&acc[i*n+p], &acc[(i+1)*n+p], &acc[(i+2)*n+p], &acc[(i+3)*n+p], 0)
		}
	}
	for ; i < in; i++ {
		for p := 0; p < np8; p += 8 {
			dgemmTile1(kc, &ad[lo*in+i], astr, &bd[lo*n+p], bstr, &acc[i*n+p], 0)
		}
	}
	if np8 < n {
		for r := lo; r < hi; r++ {
			arow := ad[r*in : (r+1)*in]
			brow := bd[r*n+np8 : (r+1)*n]
			for ii, av := range arow {
				if av == 0 {
					continue
				}
				accRow := acc[ii*n+np8 : (ii+1)*n]
				for j, bv := range brow {
					accRow[j] += av * bv
				}
			}
		}
	}
}
