package tensor

import (
	"math"
	"math/rand"
	"testing"

	"meshgnn/internal/parallel"
)

// Cross-tier lockstep: the AVX-512 kernels must give bit for bit the
// AVX2 kernels' results, on every GEMM form and every ELU input, so
// golden files and mixed-host worlds do not see which tier ran.

// requireSIMD skips a test of the packed tier on hosts without AVX2+FMA,
// where the tier never engages.
func requireSIMD(t testing.TB) {
	t.Helper()
	if !SIMDEnabled() {
		t.Skipf("packed GEMM tier needs AVX2+FMA (kernel tier %s)", KernelTier())
	}
}

// requireSIMD512 skips a cross-tier test on hosts without AVX-512, where
// there is no second tier to compare the AVX2 one with.
func requireSIMD512(t testing.TB) {
	t.Helper()
	requireSIMD(t)
	if !detectSIMD512() {
		t.Skipf("no AVX-512 on this host (kernel tier %s): nothing to compare the AVX2 tier with", KernelTier())
	}
}

// onTier runs f with the AVX-512 tier on (wide) or off.
func onTier[T any](wide bool, f func() T) T {
	prev := setSIMD512(wide)
	defer setSIMD512(prev)
	return f()
}

// firstBitDiff returns the first index where got and want differ in
// bits (NaN payloads and signed zeros included), or -1.
func firstBitDiff(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// gemmForms computes every f64 GEMM entry point on fixed operands:
// MatMul, MatMulPacked, MatMulABT and MatMulATB.
type gemmForms struct {
	a, b, bt, c *Matrix // a m×k, b k×n, bt n×k, c m×n (the ATB right operand)
}

func newGemmForms(rng *rand.Rand, m, k, n int) gemmForms {
	g := gemmForms{randomMatrix(rng, m, k), randomMatrix(rng, k, n), randomMatrix(rng, n, k), randomMatrix(rng, m, n)}
	withPlantedZeros(rng, g.a)
	return g
}

func (g gemmForms) run() map[string]*Matrix {
	m, k, n := g.a.Rows, g.a.Cols, g.b.Cols
	out := map[string]*Matrix{"MatMul": New(m, n), "MatMulPacked": New(m, n), "MatMulABT": New(m, n), "MatMulATB": New(k, n)}
	MatMul(out["MatMul"], g.a, g.b)
	MatMulPacked(out["MatMulPacked"], g.a, PackB(g.b)) // the tier at any shape
	MatMulABT(out["MatMulABT"], g.a, g.bt)
	MatMulATB(out["MatMulATB"], g.a, g.c)
	return out
}

// checkLockstep compares the forms on the AVX-512 tier against the AVX2
// tier bit for bit.
func checkLockstep(t testing.TB, what string, g gemmForms) {
	t.Helper()
	want := onTier(false, g.run)
	got := onTier(true, g.run)
	for name, w := range want {
		if i := firstBitDiff(got[name].Data, w.Data); i >= 0 {
			t.Errorf("%s %s %dx%dx%d: elem %d avx512 %#016x avx2 %#016x", what, name,
				g.a.Rows, g.a.Cols, g.b.Cols, i, math.Float64bits(got[name].Data[i]), math.Float64bits(w.Data[i]))
		}
	}
}

// tierShapes extend packedShapes with the model's tall-skinny shapes and
// M, K, N that are odd or off a multiple of 8 in every combination.
var tierShapes = append([][3]int{
	{8, 32, 32},     // one 8-row tile exactly
	{9, 31, 8},      // 8-row tile + 1-row tail, odd K
	{12, 64, 17},    // 8 + 4 rows, col tail 1
	{15, 33, 47},    // 8 + 4 + 3 rows, col tail 7
	{16, 96, 96},    // hidden width
	{23, 129, 24},   // odd K over a panel group
	{600, 96, 32},   // tall-skinny MLP layer
	{1001, 35, 128}, // odd M and K, many panels
}, packedShapes...)

func TestPackedTiersLockstep(t *testing.T) {
	requireSIMD512(t)
	rng := rand.New(rand.NewSource(61))
	for _, sh := range tierShapes {
		checkLockstep(t, "shape", newGemmForms(rng, sh[0], sh[1], sh[2]))
	}

	t.Run("Kc remainders", func(t *testing.T) {
		prevKc := packKc
		defer func() { packKc = prevKc }()
		for _, kc := range []int{1, 7, 16, 20} {
			packKc = kc
			for _, sh := range tierShapes {
				checkLockstep(t, "packKc", newGemmForms(rng, sh[0], sh[1], sh[2]))
			}
		}
	})

	// Row blocks starting off a multiple of 8 against the AVX2 full
	// product: the 8-row tiles of a block cover rows the full product
	// computed in other tiles.
	t.Run("row chunks", func(t *testing.T) {
		const m, k, n = 77, 96, 40
		g := newGemmForms(rng, m, k, n)
		want := onTier(false, func() *Matrix {
			d := New(m, n)
			MatMul(d, g.a, g.b)
			return d
		})
		for _, cut := range []int{1, 3, 5, 9, 13, 70} {
			got := onTier(true, func() *Matrix {
				d := New(m, n)
				MatMul(FromSlice(cut, n, d.Data[:cut*n]), FromSlice(cut, k, g.a.Data[:cut*k]), g.b)
				MatMul(FromSlice(m-cut, n, d.Data[cut*n:]), FromSlice(m-cut, k, g.a.Data[cut*k:]), g.b)
				return d
			})
			if i := firstBitDiff(got.Data, want.Data); i >= 0 {
				t.Errorf("row cut at %d: elem %d differs from the AVX2 full product", cut, i)
			}
		}
	})

	// Thread sweeps: parallel chunks start wherever the grain puts them.
	t.Run("threads", func(t *testing.T) {
		defer parallel.Configure(0, true)
		for _, sh := range [][3]int{{515, 96, 33}, {1029, 37, 96}} {
			g := newGemmForms(rng, sh[0], sh[1], sh[2])
			parallel.SetThreads(1)
			want := onTier(false, g.run)
			for _, th := range []int{1, 2, 3, 7} {
				parallel.SetThreads(th)
				got := onTier(true, g.run)
				for name, w := range want {
					if i := firstBitDiff(got[name].Data, w.Data); i >= 0 {
						t.Errorf("%s %v threads=%d: elem %d differs from AVX2 at 1 thread", name, sh, th, i)
					}
				}
			}
		}
	})

	// Non-finite operands: Inf and NaN propagate through the fused
	// products exactly as on the AVX2 tier.
	t.Run("non-finite", func(t *testing.T) {
		specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(),
			math.Float64frombits(0x7ff8000000000bad), math.Float64frombits(0xfff4000000000001), 0, math.Copysign(0, -1)}
		for _, sh := range [][3]int{{17, 40, 24}, {9, 33, 17}} {
			g := newGemmForms(rng, sh[0], sh[1], sh[2])
			for _, m := range []*Matrix{g.a, g.b, g.bt, g.c} {
				for i := range m.Data {
					if rng.Intn(9) == 0 {
						m.Data[i] = specials[rng.Intn(len(specials))]
					}
				}
			}
			checkLockstep(t, "non-finite", g)
		}

		// Every output element first meets a NaN·NaN product with
		// distinct payloads, so the FMA's choice of payload shows in
		// every element: k0 for MatMul, MatMulPacked and MatMulABT,
		// input row r0 for MatMulATB.
		nanA, nanB := math.Float64frombits(0x7ff8000000000bad), math.NaN()
		const m, k, n, k0, r0 = 19, 40, 32, 5, 3
		g := newGemmForms(rng, m, k, n)
		for r := 0; r < m; r++ {
			g.a.Data[r*k+k0] = nanA
		}
		for i := 0; i < k; i++ {
			g.a.Data[r0*k+i] = nanA
		}
		for j := 0; j < n; j++ {
			g.b.Data[k0*n+j], g.bt.Data[j*k+k0], g.c.Data[r0*n+j] = nanB, nanB, nanB
		}
		checkLockstep(t, "NaN·NaN", g)
	})
}

// FuzzPackedTiers drives random shapes, data and Kc splits through both
// SIMD tiers and demands identical bits on every GEMM form.
func FuzzPackedTiers(f *testing.F) {
	f.Add(uint16(9), uint16(96), uint16(32), uint8(0), int64(1))
	f.Add(uint16(17), uint16(33), uint16(41), uint8(5), int64(2))
	f.Add(uint16(64), uint16(128), uint16(8), uint8(16), int64(3))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw uint16, kcRaw uint8, seed int64) {
		requireSIMD512(t)
		m := int(mRaw%96) + 1
		k := int(kRaw%160) + 1
		n := int(nRaw%80) + 1
		if kcRaw > 0 {
			prevKc := packKc
			packKc = int(kcRaw)
			defer func() { packKc = prevKc }()
		}
		checkLockstep(t, "fuzz", newGemmForms(rand.New(rand.NewSource(seed)), m, k, n))
	})
}
