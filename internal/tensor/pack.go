package tensor

import (
	"fmt"
	"sync"
)

// Packed cache-blocked GEMM tier.
//
// Layout. A B operand (K×N) is packed BLIS-style into NR-wide k-major
// column panels: panel p holds columns [p·NR, (p+1)·NR) as K contiguous
// NR-vectors, so the register microkernel streams exactly one vector load
// sequence per k step regardless of N or the operand's leading dimension.
// The N mod NR remainder columns are packed as K-long contiguous column
// strips consumed by a scalar tail loop. PackBT routes the transpose of
// an N×K row-major matrix through the same layout, which is how MatMulABT
// reuses the identical microkernel; for MatMulATB the packed layout
// degenerates to the natural row-major layout of B (every row IS an
// N-wide k-step), so that path streams B directly.
//
// The A operand is deliberately NOT packed in the drivers: it is the
// row-major streaming operand, each row is read with unit stride, and a
// row tile's slice of A (at most 8·Kc floats) stays L1-resident across
// its panel sweep, so a pack pass would only add traffic. PackB/PackBWith
// exist for weight matrices reused across calls (serving engines pack
// once at compile time); the in-driver pack path re-packs per call, which
// for the shapes in this system costs under 0.1% of the multiply's flops.
//
// Blocking. Mc is the parallel.ForTask row chunk (shape-derived grain,
// split freely across workers). Kc (packKc) bounds the inner-dimension
// extent per kernel pass, with the accumulate flag resuming the same
// per-element summation order across blocks. Nc bounds the packed-panel
// bytes live per (kc, nc) block (packNcBudget) so the streamed panel
// group stays cache-resident.
//
// Determinism. The tier engages on a threshold over K·N ONLY — never the
// row count — so the kernel a given row meets is independent of how rows
// are partitioned across ranks, chunks, or threads. Within the tier,
// every kernel performs the exact per-row operation sequence of every
// other (the 8-row AVX-512 tile, the 4-row and the 1-row AVX2 tiles all
// accumulate c += a[k]·b[k] fused, in ascending k), so a row's bits never
// depend on which tile computed it — nor on whether the host has
// AVX-512. The fused multiply-adds round differently from the legacy Go
// kernels, identically for every thread count and partitioning. The tier
// is SIMD-only: without AVX2+FMA, ShouldPack reports false and the ops
// run the legacy kernels.

const (
	// packMinKN engages the packed tier when K*N >= packMinKN. Small
	// shapes (the SmallConfig model, scalar heads) stay on the legacy
	// kernels, whose bits they have golden files against.
	packMinKN = 1024
	// packNcBudget caps the packed-panel bytes streamed per (kc, nc)
	// block at roughly the L2 working set alongside A tiles and C rows.
	packNcBudget = 192 << 10
)

// packKc is the Kc inner-dimension block; a var so tests can shrink it to
// exercise block remainders.
var packKc = 2048

var (
	simdGEMM   = detectSIMD()
	simd512    = detectSIMD512()
	packedGEMM = true
)

// SIMDEnabled reports whether the assembly kernels are in use: AVX2+FMA,
// with the AVX-512 tier on top where the CPU has it.
func SIMDEnabled() bool { return simdGEMM }

// KernelTier names the float64 kernel tier this process runs: "avx512"
// (zmm GEMM tiles and ELU over the AVX2 kernels), "avx2+fma", or
// "generic" (the legacy Go kernels). The AVX-512 and AVX2 tiers are
// bitwise equal; "generic" rounds the GEMMs differently. Benchmark
// reports record it so a tier change cannot pass for a code speed-up.
func KernelTier() string {
	switch {
	case simdGEMM && simd512:
		return "avx512"
	case simdGEMM:
		return "avx2+fma"
	}
	return "generic"
}

// setPackedGEMM toggles the packed tier entirely (test hook); returns the
// previous setting.
func setPackedGEMM(on bool) bool {
	prev := packedGEMM
	packedGEMM = on
	return prev
}

// setSIMDGEMM forces the legacy Go kernels when off (test hook);
// enabling requires hardware support. Returns the previous setting.
func setSIMDGEMM(on bool) bool {
	prev := simdGEMM
	simdGEMM = on && detectSIMD()
	return prev
}

// setSIMD512 drops the GEMM and ELU kernels to the AVX2 tier when off
// (test hook); enabling requires hardware support. Returns the previous
// setting.
func setSIMD512(on bool) bool {
	prev := simd512
	simd512 = on && detectSIMD512()
	return prev
}

// packNR is the f64 panel width: 8 columns, one zmm or two ymm vectors.
const packNR = 8

// packNR32 is the f32 panel width (16 lanes). The f32 tier is SIMD-only;
// without AVX2 the f32 ops use their scalar kernels unpacked.
const packNR32 = 16

func usePacked(k, n int) bool {
	return packedGEMM && simdGEMM && k > 0 && k*n >= packMinKN
}

// ShouldPack32 reports whether the f32 packed tier would engage for a
// GEMM with inner dimension k and output width n — the compile-time
// predicate serving engines use to decide whether pre-packing a weight
// matrix (PackB32) is worthwhile. False on hardware without the SIMD
// tier or below the blocking threshold, where the scalar f32 kernel wins.
func ShouldPack32(k, n int) bool { return usePacked(k, n) }

// ShouldPack is the f64 twin of ShouldPack32: it reports whether MatMul
// itself would route a (·,k)·(k,n) product through the packed tier.
// Pre-packing a weight matrix (PackB) and calling MatMulPacked is then
// bitwise-identical to MatMul on the unpacked operand — the caching
// predicate the compiled serving twins and the training-side epoch pack
// cache share. Below the threshold the legacy kernels win (and have
// golden files against their bits), so callers must not pre-pack. False
// without AVX2+FMA, where the legacy kernels run.
func ShouldPack(k, n int) bool { return usePacked(k, n) }

// PackedB is a B operand packed for the f64 GEMM tier: full NR-wide
// panels plus column strips for the N mod NR remainder.
type PackedB struct {
	K, N   int
	panels []float64 // (N/NR) panels of K×NR, k-major
	tail   []float64 // (N mod NR) column strips of K
}

func (p *PackedB) sizeFor(k, n int) {
	p.K, p.N = k, n
	np := n / packNR
	needP := np * k * packNR
	needT := (n - np*packNR) * k
	if cap(p.panels) < needP {
		p.panels = make([]float64, needP)
	}
	p.panels = p.panels[:needP]
	if cap(p.tail) < needT {
		p.tail = make([]float64, needT)
	}
	p.tail = p.tail[:needT]
}

// packFrom fills the panels from a K×N row-major source.
func (p *PackedB) packFrom(b *Matrix) {
	k, n, nr := p.K, p.N, packNR
	np := n / nr
	for pn := 0; pn < np; pn++ {
		dst := p.panels[pn*k*nr : (pn+1)*k*nr]
		for kk := 0; kk < k; kk++ {
			copy(dst[kk*nr:(kk+1)*nr], b.Data[kk*n+pn*nr:kk*n+(pn+1)*nr])
		}
	}
	for jt := 0; jt < n-np*nr; jt++ {
		strip := p.tail[jt*k : (jt+1)*k]
		j := np*nr + jt
		for kk := 0; kk < k; kk++ {
			strip[kk] = b.Data[kk*n+j]
		}
	}
}

// packFromT fills the panels from the TRANSPOSE of an N×K row-major
// source (the MatMulABT operand): packed column j is source row j.
func (p *PackedB) packFromT(b *Matrix) {
	k, n, nr := p.K, p.N, packNR
	np := n / nr
	for pn := 0; pn < np; pn++ {
		dst := p.panels[pn*k*nr : (pn+1)*k*nr]
		for jr := 0; jr < nr; jr++ {
			row := b.Data[(pn*nr+jr)*k : (pn*nr+jr+1)*k]
			for kk, v := range row {
				dst[kk*nr+jr] = v
			}
		}
	}
	for jt := 0; jt < n-np*nr; jt++ {
		copy(p.tail[jt*k:(jt+1)*k], b.Data[(np*nr+jt)*k:(np*nr+jt+1)*k])
	}
}

// PackB packs b (K×N) for reuse across MatMulPacked calls — the
// pack-once form for weight matrices that are multiplied many times
// (serving engines pack at compile time).
func PackB(b *Matrix) *PackedB {
	p := &PackedB{}
	p.sizeFor(b.Rows, b.Cols)
	p.packFrom(b)
	return p
}

// PackBWith is PackB with the packed storage carved from an arena, so a
// per-epoch workspace records the pack buffer alongside the activations
// it feeds: pack once per arena epoch, replay for free.
func PackBWith(ar *Arena, b *Matrix) *PackedB {
	if ar == nil {
		return PackB(b)
	}
	p := &PackedB{}
	np := b.Cols / packNR
	needP := np * b.Rows * packNR
	needT := (b.Cols - np*packNR) * b.Rows
	backing := ar.Get(1, needP+needT)
	p.K, p.N = b.Rows, b.Cols
	p.panels = backing.Data[:needP:needP]
	p.tail = backing.Data[needP : needP+needT : needP+needT]
	p.packFrom(b)
	return p
}

// Usable reports whether this packed operand may stand in for its source
// matrix in MatMul: the packed tier still engages for its shape, so the
// bits match the unpacked path. Safe on a nil receiver — callers keep one
// `if pb.Usable()` branch on their hot path.
func (p *PackedB) Usable() bool {
	return p != nil && usePacked(p.K, p.N)
}

// Repack refreshes the packed contents from b, which must have the shape
// the PackedB was built for.
func (p *PackedB) Repack(b *Matrix) {
	if b.Rows != p.K || b.Cols != p.N {
		panic(fmt.Sprintf("tensor: Repack shape %dx%d, packed for %dx%d", b.Rows, b.Cols, p.K, p.N))
	}
	p.packFrom(b)
}

// packScratch pools per-call pack buffers (activation-side operands and
// training weights are re-packed per call; the buffers grow in place and
// recycle, so steady state performs no heap allocation).
var packScratch = sync.Pool{New: func() any { return new(PackedB) }}

func getPackScratch(k, n int) *PackedB {
	p := packScratch.Get().(*PackedB)
	p.sizeFor(k, n)
	return p
}

func putPackScratch(p *PackedB) { packScratch.Put(p) }

// PackedB32 is the float32 twin of PackedB (panel width packNR32).
type PackedB32 struct {
	K, N, NR int
	panels   []float32
	tail     []float32
}

func (p *PackedB32) sizeFor(k, n, nr int) {
	p.K, p.N, p.NR = k, n, nr
	np := n / nr
	needP := np * k * nr
	needT := (n - np*nr) * k
	if cap(p.panels) < needP {
		p.panels = make([]float32, needP)
	}
	p.panels = p.panels[:needP]
	if cap(p.tail) < needT {
		p.tail = make([]float32, needT)
	}
	p.tail = p.tail[:needT]
}

func (p *PackedB32) packFrom(b *Matrix32) {
	k, n, nr := p.K, p.N, p.NR
	np := n / nr
	for pn := 0; pn < np; pn++ {
		dst := p.panels[pn*k*nr : (pn+1)*k*nr]
		for kk := 0; kk < k; kk++ {
			copy(dst[kk*nr:(kk+1)*nr], b.Data[kk*n+pn*nr:kk*n+(pn+1)*nr])
		}
	}
	for jt := 0; jt < n-np*nr; jt++ {
		strip := p.tail[jt*k : (jt+1)*k]
		j := np*nr + jt
		for kk := 0; kk < k; kk++ {
			strip[kk] = b.Data[kk*n+j]
		}
	}
}

// PackB32 packs b (K×N) for reuse across MatMul32Packed calls — the
// compile-time pack for the float32 serving twin's weights.
func PackB32(b *Matrix32) *PackedB32 {
	p := &PackedB32{}
	p.sizeFor(b.Rows, b.Cols, packNR32)
	p.packFrom(b)
	return p
}

// Repack32 refreshes the packed contents from b.
func (p *PackedB32) Repack(b *Matrix32) {
	if b.Rows != p.K || b.Cols != p.N {
		panic(fmt.Sprintf("tensor: Repack32 shape %dx%d, packed for %dx%d", b.Rows, b.Cols, p.K, p.N))
	}
	p.packFrom(b)
}

var packScratch32 = sync.Pool{New: func() any { return new(PackedB32) }}

func getPackScratch32(k, n, nr int) *PackedB32 {
	p := packScratch32.Get().(*PackedB32)
	p.sizeFor(k, n, nr)
	return p
}

func putPackScratch32(p *PackedB32) { packScratch32.Put(p) }
