package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"meshgnn/internal/parallel"
)

// Naive references: plain ascending-k accumulation, no blocking, no
// parallelism — the semantic ground truth the packed tier is checked
// against, to tolerance (the FMA kernels round differently).

func naiveMatMul(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

func naiveMatMulABT(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

func naiveMatMulATB(a, b *Matrix) *Matrix {
	dst := New(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for r := 0; r < a.Rows; r++ {
				s += a.At(r, i) * b.At(r, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

func maxRel(got, want *Matrix) float64 {
	var worst float64
	for i, w := range want.Data {
		d := math.Abs(got.Data[i] - w)
		if r := d / (1 + math.Abs(w)); r > worst {
			worst = r
		}
	}
	return worst
}

// withPlantedZeros zeroes a scattering of entries (and whole rank-4
// groups) so the legacy kernels' zero-skip branches are on the compared
// path.
func withPlantedZeros(rng *rand.Rand, m *Matrix) {
	for i := range m.Data {
		if rng.Intn(5) == 0 {
			m.Data[i] = 0
		}
	}
	if m.Rows > 0 && m.Cols >= 8 {
		clear(m.Data[:min(8, len(m.Data))])
	}
}

// packedShapes are (M, K, N) triples chosen to hit every remainder path:
// row tails mod 4 and 8, column tails mod NR (8, and 16 for f32), Kc block edges
// (packKc is shrunk in the tests that need K > Kc), and the threshold
// boundary itself.
var packedShapes = [][3]int{
	{1, 32, 32},   // single row
	{2, 64, 16},   // pair, exact panels
	{3, 32, 33},   // row tail + col tail 1
	{4, 128, 8},   // one panel exactly
	{5, 96, 32},   // tracked-shape columns, row tail 1
	{7, 37, 40},   // odd K
	{8, 33, 31},   // col tail 7 (all widths)
	{17, 64, 9},   // col tail 1 over 8-panel
	{33, 48, 24},  // col tail 0 mod 4, 8 for NR=8? 24 = 3*8 exact
	{64, 96, 35},  // col tail 3
	{129, 40, 26}, // everything ragged
}

func TestPackedMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range packedShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		withPlantedZeros(rng, a)
		want := naiveMatMul(a, b)

		dst := New(m, n)
		MatMul(dst, a, b) // whichever tier the shape selects
		if rel := maxRel(dst, want); rel > 1e-12 {
			t.Errorf("MatMul %dx%dx%d diverges from naive: rel %g", m, k, n, rel)
		}

		// Pre-packed form must match the per-call packed form bitwise
		// when the shape engages the tier.
		if usePacked(k, n) {
			pb := PackB(b)
			dst2 := New(m, n)
			MatMulPacked(dst2, a, pb)
			if !dst2.Equal(dst) {
				t.Errorf("MatMulPacked %dx%dx%d not bitwise MatMul", m, k, n)
			}
		}
	}
}

// TestNoSIMDRunsLegacyKernels pins the contract for hosts without
// AVX2+FMA: the packed tier never engages, and MatMul, MatMulABT and
// MatMulATB produce the legacy kernels' bits, so such hosts keep every
// golden file.
func TestNoSIMDRunsLegacyKernels(t *testing.T) {
	prevSIMD := setSIMDGEMM(false)
	defer setSIMDGEMM(prevSIMD)
	rng := rand.New(rand.NewSource(11))
	for _, sh := range packedShapes {
		m, k, n := sh[0], sh[1], sh[2]
		if ShouldPack(k, n) || ShouldPack32(k, n) {
			t.Fatalf("packed tier engages at K=%d N=%d without SIMD", k, n)
		}
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		bt := randomMatrix(rng, n, k)
		c := randomMatrix(rng, m, n)
		withPlantedZeros(rng, a)
		run := func() []*Matrix {
			mm, abt, atb := New(m, n), New(m, n), New(k, n)
			MatMul(mm, a, b)
			MatMulABT(abt, a, bt)
			MatMulATB(atb, a, c)
			return []*Matrix{mm, abt, atb}
		}
		got := run()
		prevPacked := setPackedGEMM(false)
		want := run() // the legacy kernels, tier selection bypassed
		setPackedGEMM(prevPacked)
		for i, name := range []string{"MatMul", "MatMulABT", "MatMulATB"} {
			if !got[i].Equal(want[i]) {
				t.Errorf("%s %dx%dx%d without SIMD is not the legacy kernel's bits", name, m, k, n)
			}
		}
	}
}

// TestPackedKcBlocking shrinks packKc so every shape spans multiple Kc
// blocks, exercising the accumulate-resume path of both SIMD tiers.
func TestPackedKcBlocking(t *testing.T) {
	requireSIMD(t)
	prevKc := packKc
	packKc = 16
	defer func() { packKc = prevKc }()

	rng := rand.New(rand.NewSource(13))
	for _, wide := range []bool{true, false} {
		prev := setSIMD512(wide)
		for _, sh := range packedShapes {
			m, k, n := sh[0], sh[1], sh[2]
			a := randomMatrix(rng, m, k)
			b := randomMatrix(rng, k, n)
			want := naiveMatMul(a, b)
			dst := New(m, n)
			pb := PackB(b)
			MatMulPacked(dst, a, pb) // forced through the tier, any shape
			if rel := maxRel(dst, want); rel > 1e-12 {
				t.Errorf("%s Kc=16 %dx%dx%d rel %g", KernelTier(), m, k, n, rel)
			}
		}
		setSIMD512(prev)
	}
}

func TestPackedEmptyShapes(t *testing.T) {
	for _, sh := range [][3]int{{0, 32, 64}, {4, 0, 64}, {4, 32, 0}, {0, 0, 0}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := New(m, k)
		b := New(k, n)
		dst := New(m, n)
		MatMul(dst, a, b) // must not panic
		if SIMDEnabled() {
			pb := PackB(b)
			dst2 := New(m, n)
			MatMulPacked(dst2, a, pb)
		}
	}
}

func TestPackedMatMulBitwiseAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const m, k, n = 515, 96, 33 // above threshold, ragged everywhere
	a := randomMatrix(rng, m, k)
	b := randomMatrix(rng, k, n)
	requireSIMD(t)
	if !usePacked(k, n) {
		t.Fatal("shape must engage the packed tier")
	}
	outs := runAtThreads(t, []int{1, 2, 3, 8}, func() *Matrix {
		dst := New(m, n)
		MatMul(dst, a, b)
		return dst
	})
	for i := 1; i < len(outs); i++ {
		if !outs[i].Equal(outs[0]) {
			t.Errorf("packed MatMul differs between thread settings (case %d)", i)
		}
	}
}

// TestPackedRowPartitionInvariance pins the property the partition suites
// rely on: because tier selection depends only on (K, N), computing a row
// block in isolation gives bitwise the rows of the full product — however
// the mesh is split across ranks.
func TestPackedRowPartitionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const m, k, n = 37, 96, 32
	a := randomMatrix(rng, m, k)
	b := randomMatrix(rng, k, n)
	full := New(m, n)
	MatMul(full, a, b)
	for _, cut := range []int{1, 3, 4, 18, 36} {
		top := FromSlice(cut, k, a.Data[:cut*k])
		bot := FromSlice(m-cut, k, a.Data[cut*k:])
		got := New(m, n)
		MatMul(FromSlice(cut, n, got.Data[:cut*n]), top, b)
		MatMul(FromSlice(m-cut, n, got.Data[cut*n:]), bot, b)
		if !got.Equal(full) {
			t.Errorf("row partition at %d changes bits", cut)
		}
	}
}

func TestPackedMatMulABTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sh := range [][3]int{{5, 33, 96}, {64, 32, 96}, {7, 40, 37}, {128, 32, 33}} {
		m, k, n := sh[0], sh[1], sh[2] // dst m×n = a(m×k)·b(n×k)ᵀ
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, n, k)
		want := naiveMatMulABT(a, b)
		dst := New(m, n)
		MatMulABT(dst, a, b)
		if rel := maxRel(dst, want); rel > 1e-12 {
			t.Errorf("MatMulABT %v rel %g", sh, rel)
		}
	}
}

func TestPackedMatMulATBMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, sh := range [][3]int{{515, 33, 40}, {1029, 96, 32}, {97, 130, 9}, {257, 37, 33}} {
		rows, in, n := sh[0], sh[1], sh[2]
		a := randomMatrix(rng, rows, in)
		b := randomMatrix(rng, rows, n)
		want := naiveMatMulATB(a, b)
		dst := New(in, n)
		MatMulATB(dst, a, b)
		if rel := maxRel(dst, want); rel > 1e-11 {
			t.Errorf("MatMulATB %v rel %g", sh, rel)
		}
		outs := runAtThreads(t, []int{1, 2, 5}, func() *Matrix {
			d := New(in, n)
			MatMulATB(d, a, b)
			return d
		})
		for i := 1; i < len(outs); i++ {
			if !outs[i].Equal(outs[0]) {
				t.Errorf("MatMulATB %v differs across thread settings", sh)
			}
		}
	}
}

func TestPackBWithArenaReplays(t *testing.T) {
	requireSIMD(t)
	rng := rand.New(rand.NewSource(31))
	ar := NewArena()
	b := randomMatrix(rng, 96, 32)
	pb := PackBWith(ar, b)
	slots := ar.Slots()
	ar.Reset()
	pb2 := PackBWith(ar, b)
	if ar.Slots() != slots {
		t.Fatalf("replayed pack grew the arena: %d -> %d slots", slots, ar.Slots())
	}
	if len(pb.panels) > 0 && len(pb2.panels) > 0 && &pb.panels[0] != &pb2.panels[0] {
		t.Error("replayed pack did not reuse the arena slab")
	}
	a := randomMatrix(rng, 9, 96)
	dst, dst2 := New(9, 32), New(9, 32)
	MatMulPacked(dst, a, pb2)
	MatMul(dst2, a, b)
	if !dst.Equal(dst2) {
		t.Error("arena-packed product differs from per-call pack")
	}
}

func TestPackedZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	parallel.Configure(1, true)
	defer parallel.Configure(0, true)
	rng := rand.New(rand.NewSource(37))
	a := randomMatrix(rng, 64, 96)
	b := randomMatrix(rng, 96, 32)
	dst := New(64, 32)
	requireSIMD(t)
	if !usePacked(96, 32) {
		t.Fatal("shape must engage the packed tier")
	}
	assertZeroAlloc(t, "MatMul(packed)", func() { MatMul(dst, a, b) })
	w := randomMatrix(rng, 33, 96)
	dabt := New(64, 33)
	assertZeroAlloc(t, "MatMulABT(packed)", func() { MatMulABT(dabt, a, w) })
	datb := New(96, 32)
	bb := randomMatrix(rng, 64, 32)
	assertZeroAlloc(t, "MatMulATB(packed)", func() { MatMulATB(datb, a, bb) })
}

// --- float32 tier ---------------------------------------------------------

func randomMatrix32(rng *rand.Rand, rows, cols int) (*Matrix32, *Matrix) {
	m64 := randomMatrix(rng, rows, cols)
	return Demote32(m64), m64
}

func TestMatMul32MatchesF64Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sh := range [][3]int{{5, 96, 32}, {64, 96, 35}, {3, 32, 33}, {129, 40, 15}, {17, 64, 17}} {
		m, k, n := sh[0], sh[1], sh[2]
		a32, a64 := randomMatrix32(rng, m, k)
		b32, b64 := randomMatrix32(rng, k, n)
		oracle := naiveMatMul(a64, b64)
		dst := New32(m, n)
		MatMul32(dst, a32, b32)
		if rel := dst.MaxRelDiff64(oracle); rel > 1e-4*math.Sqrt(float64(k)) {
			t.Errorf("MatMul32 %v rel %g vs f64 oracle", sh, rel)
		}
	}
}

func TestMatMul32PackedMatchesScalar(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("f32 packed tier requires AVX2")
	}
	rng := rand.New(rand.NewSource(43))
	for _, sh := range [][3]int{{5, 96, 32}, {64, 64, 48}, {7, 40, 37}, {33, 96, 16}} {
		m, k, n := sh[0], sh[1], sh[2]
		a32, _ := randomMatrix32(rng, m, k)
		b32, _ := randomMatrix32(rng, k, n)
		packed := New32(m, n)
		pb := PackB32(b32)
		MatMul32Packed(packed, a32, pb)

		scalar := New32(m, n)
		prev := setPackedGEMM(false)
		MatMul32(scalar, a32, b32)
		setPackedGEMM(prev)

		var worst float64
		for i := range packed.Data {
			d := math.Abs(float64(packed.Data[i]) - float64(scalar.Data[i]))
			if r := d / (1 + math.Abs(float64(scalar.Data[i]))); r > worst {
				worst = r
			}
		}
		if worst > 1e-5 {
			t.Errorf("f32 packed vs scalar %v rel %g", sh, worst)
		}
	}
}

func TestMatMul32BitwiseAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const m, k, n = 515, 96, 33
	a32, _ := randomMatrix32(rng, m, k)
	b32, _ := randomMatrix32(rng, k, n)
	defer parallel.Configure(0, true)
	var base *Matrix32
	for _, th := range []int{1, 2, 8} {
		parallel.SetThreads(th)
		dst := New32(m, n)
		MatMul32(dst, a32, b32)
		if base == nil {
			base = dst
			continue
		}
		for i := range dst.Data {
			if dst.Data[i] != base.Data[i] {
				t.Fatalf("MatMul32 differs at threads=%d (index %d)", th, i)
			}
		}
	}
}

func TestDemotePromoteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	m64 := randomMatrix(rng, 7, 9)
	m32 := Demote32(m64)
	back := New(7, 9)
	PromoteInto64(back, m32)
	for i := range back.Data {
		if back.Data[i] != float64(float32(m64.Data[i])) {
			t.Fatal("demote/promote is not the f32 rounding of the source")
		}
	}
	if rel := m32.MaxRelDiff64(m64); rel > 1e-6 {
		t.Errorf("round-trip rel %g", rel)
	}
}

// FuzzPackedMatMul drives random shapes and data through whichever tier
// the shape selects and cross-checks the naive reference.
func FuzzPackedMatMul(f *testing.F) {
	f.Add(uint16(5), uint16(96), uint16(32), int64(1))
	f.Add(uint16(1), uint16(33), uint16(31), int64(2))
	f.Add(uint16(8), uint16(128), uint16(9), int64(3))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw uint16, seed int64) {
		m := int(mRaw%64) + 1
		k := int(kRaw % 200)
		n := int(nRaw % 70)
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		withPlantedZeros(rng, a)
		want := naiveMatMul(a, b)
		dst := New(m, n)
		MatMul(dst, a, b)
		if rel := maxRel(dst, want); rel > 1e-11 {
			t.Fatalf("MatMul %dx%dx%d rel %g", m, k, n, rel)
		}
		if n > 0 {
			wantABT := naiveMatMulABT(a, b2T(b))
			dabt := New(m, k)
			_ = wantABT
			_ = dabt
		}
	})
}

// b2T returns bᵀ as a concrete matrix (fuzz helper).
func b2T(b *Matrix) *Matrix {
	out := New(b.Cols, b.Rows)
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			out.Set(j, i, b.At(i, j))
		}
	}
	return out
}

// FuzzPackedDeterminism re-runs one packed product at several thread
// counts and demands bitwise equality — the packed tier's core contract.
func FuzzPackedDeterminism(f *testing.F) {
	f.Add(uint16(19), int64(1))
	f.Fuzz(func(t *testing.T, mRaw uint16, seed int64) {
		m := int(mRaw%128) + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, m, 64)
		b := randomMatrix(rng, 64, 24)
		defer parallel.Configure(0, true)
		parallel.SetThreads(1)
		base := New(m, 24)
		MatMul(base, a, b)
		for _, th := range []int{2, 7} {
			parallel.SetThreads(th)
			got := New(m, 24)
			MatMul(got, a, b)
			if !got.Equal(base) {
				t.Fatalf("threads=%d changes packed MatMul bits (m=%d)", th, m)
			}
		}
	})
}

var _ = binary.LittleEndian // keep encoding/binary available for future corpus decoding
