package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// eluRef64 and eluBackRef64 are the plain Go expressions every float64
// ELU path must reproduce bit for bit.
func eluRef64(v float64) float64 {
	if v > 0 {
		return v
	}
	return math.Exp(v) - 1
}

func eluBackRef64(y, dy float64) float64 {
	if y > 0 {
		return dy
	}
	return dy * (y + 1)
}

// eluSpecials64 are the edge inputs: signed zeros, subnormals, infinities,
// NaNs with distinct payloads, and both sides of -708 (where the kernel
// hands a group to math.Exp), -708.4 (archExp's denormal 2^k) and -745.13
// (exp underflows to zero).
func eluSpecials64() []float64 {
	return []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1022, -0x1p-1022,
		-0x1.fffffffffffffp-1023, -0x1p-1060, 1e-300, -1e-300,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000001),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff4000000000000),
		-708, math.Nextafter(-708, 0), math.Nextafter(-708, -1000), -708.39, -708.3964185322641,
		-708.4, -708.5, -709, -709.78, -744.44, -745.13, -745.1332191019412, -745.2, -746, -1e300,
		-math.MaxFloat64, math.MaxFloat64, -1, 1, -0.5, -36.7368005696771, -36.8,
	}
}

// eluInputs64 returns named input classes. Random bit patterns are mostly
// NaN or below -708, so "kernel-domain bits" keeps the random patterns the
// assembly itself evaluates — every exponent from subnormal to 2^9.
func eluInputs64() map[string][]float64 {
	rng := rand.New(rand.NewSource(12))
	const n = 1 << 16
	normals := make([]float64, n)
	wide := make([]float64, n)
	bits := make([]float64, n)
	domain := make([]float64, 0, n)
	subnormals := make([]float64, n)
	for i := 0; i < n; i++ {
		normals[i] = rng.NormFloat64()
		wide[i] = -708 * rng.Float64()
		bits[i] = math.Float64frombits(rng.Uint64())
		subnormals[i] = math.Float64frombits(rng.Uint64() & (1<<52 - 1))
		if rng.Intn(2) == 0 {
			subnormals[i] = -subnormals[i]
		}
	}
	for len(domain) < n {
		if v := math.Float64frombits(rng.Uint64()); v >= -708 {
			domain = append(domain, v)
		}
	}
	// Each special alone in an otherwise ordinary 4-lane group, at every
	// lane position, so both the kernel and its hand-off see it.
	var specials []float64
	for _, s := range eluSpecials64() {
		for lane := 0; lane < 4; lane++ {
			g := []float64{-0.25, 0.75, -3, -1e-3}
			g[lane] = s
			specials = append(specials, g...)
		}
	}
	return map[string][]float64{
		"normals": normals, "wide negative": wide, "random bits": bits,
		"kernel-domain bits": domain, "subnormals": subnormals, "specials": specials,
	}
}

// TestEluRangeMatchesMathExp pins the tier's contract: EluRange equals
// v > 0 ? v : math.Exp(v)-1 bit for bit on every input class. On AVX2
// hardware it also demands that the kernel is enabled, so a toolchain
// whose archExp no longer matches the replayed instruction sequence
// fails here instead of silently falling back.
func TestEluRangeMatchesMathExp(t *testing.T) {
	if detectSIMD() && !simdELU64 {
		t.Fatal("AVX2+FMA present but the ELU probe rejected the kernel: math.Exp no longer " +
			"takes the archExp FMA branch that elu_amd64.s replays (new toolchain, or GODEBUG=cpu.fma=off)")
	}
	for name, x := range eluInputs64() {
		y := make([]float64, len(x))
		EluRange(y, x, 0, len(x))
		for i, v := range x {
			if want := eluRef64(v); math.Float64bits(y[i]) != math.Float64bits(want) {
				t.Fatalf("%s: elem %d input %v (%#016x): got %#016x want %#016x",
					name, i, v, math.Float64bits(v), math.Float64bits(y[i]), math.Float64bits(want))
			}
		}
	}
}

// TestEluRange64LockstepAcrossPaths runs EluRange with the kernel on and
// off over unaligned ranges and split into random chunks, demanding the
// same bits as the reference each time: the 4-lane groups, the hand-off
// groups and the scalar tail all agree, so chunk boundaries, thread
// counts and SIMD availability stay invisible.
func TestEluRange64LockstepAcrossPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	specials := eluSpecials64()
	for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 31, 64, 1001, 4099} {
		x := make([]float64, n)
		for i := range x {
			switch rng.Intn(8) {
			case 0:
				x[i] = specials[rng.Intn(len(specials))]
			case 1:
				x[i] = -rng.ExpFloat64() * 100
			default:
				x[i] = rng.NormFloat64() * 3
			}
		}
		for _, lo := range []int{0, 1, 2, 3, 6} {
			if lo >= n {
				continue
			}
			for _, hi := range []int{n, n - 1, n - 2} {
				if hi <= lo {
					continue
				}
				for _, simd := range []bool{false, true} {
					prev := setSIMDELU64(simd)
					y := make([]float64, n)
					for a := lo; a < hi; {
						b := min(hi, a+1+rng.Intn(37))
						EluRange(y, x, a, b)
						a = b
					}
					setSIMDELU64(prev)
					for i := range x {
						want := 0.0
						if i >= lo && i < hi {
							want = eluRef64(x[i])
						}
						if math.Float64bits(y[i]) != math.Float64bits(want) {
							t.Fatalf("n=%d [%d,%d) simd=%v elem %d input %v: got %#016x want %#016x",
								n, lo, hi, simd, i, x[i], math.Float64bits(y[i]), math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// TestEluRangeInPlace checks the documented aliasing of x and y.
func TestEluRangeInPlace(t *testing.T) {
	x := []float64{-1, 2, -3, 0.5, -1000, math.NaN(), -0.25, 7, -2}
	want := make([]float64, len(x))
	for i, v := range x {
		want[i] = eluRef64(v)
	}
	EluRange(x, x, 0, len(x))
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
			t.Fatalf("elem %d: got %v want %v", i, x[i], want[i])
		}
	}
}

// TestEluBackRangeMatchesReference is the backward twin of the two tests
// above: the branch-free blend equals the branchy Go expression bit for
// bit, NaN payloads included, with the kernel on and off and over
// unaligned ranges.
func TestEluBackRangeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	specials := eluSpecials64()
	pick := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1:
			return math.Float64frombits(rng.Uint64())
		case 2:
			return math.Exp(-rng.ExpFloat64()*5) - 1 // ELU outputs in (-1, 0]
		default:
			return rng.NormFloat64()
		}
	}
	for _, n := range []int{1, 4, 7, 64, 1003, 1 << 14} {
		y := make([]float64, n)
		dy := make([]float64, n)
		for i := range y {
			y[i], dy[i] = pick(), pick()
		}
		for _, lo := range []int{0, 1, 3} {
			if lo >= n {
				continue
			}
			for _, simd := range []bool{false, true} {
				prev := setSIMDELU64(simd)
				dx := make([]float64, n)
				EluBackRange(dx, y, dy, lo, n)
				setSIMDELU64(prev)
				for i := lo; i < n; i++ {
					if want := eluBackRef64(y[i], dy[i]); math.Float64bits(dx[i]) != math.Float64bits(want) {
						t.Fatalf("n=%d lo=%d simd=%v elem %d y=%v dy=%v: got %#016x want %#016x",
							n, lo, simd, i, y[i], dy[i], math.Float64bits(dx[i]), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// FuzzEluRange checks EluRange against math.Exp on arbitrary float64
// bits: the fuzzed values fill one 4-lane group plus a scalar tail, at
// an aligned and an unaligned start.
func FuzzEluRange(f *testing.F) {
	for _, s := range eluSpecials64() {
		f.Add(math.Float64bits(s), math.Float64bits(-s), math.Float64bits(s/3), uint64(0))
	}
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		x := []float64{math.Float64frombits(a), math.Float64frombits(b),
			math.Float64frombits(c), math.Float64frombits(d), math.Float64frombits(a)}
		for _, lo := range []int{0, 1} {
			y := make([]float64, len(x))
			EluRange(y, x, lo, len(x))
			for i := lo; i < len(x); i++ {
				if want := eluRef64(x[i]); math.Float64bits(y[i]) != math.Float64bits(want) {
					t.Fatalf("lo=%d elem %d input %#016x: got %#016x want %#016x",
						lo, i, math.Float64bits(x[i]), math.Float64bits(y[i]), math.Float64bits(want))
				}
			}
		}
	})
}

func BenchmarkEluRange64(b *testing.B) {
	const n = 1 << 16
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i)) * 2
	}
	for _, bc := range []struct {
		name string
		simd bool
	}{{"simd", true}, {"go", false}} {
		b.Run(bc.name, func(b *testing.B) {
			prev := setSIMDELU64(bc.simd)
			defer setSIMDELU64(prev)
			if bc.simd && !simdELU64 {
				b.Skip("no AVX2+FMA")
			}
			b.SetBytes(n * 8)
			for i := 0; i < b.N; i++ {
				EluRange(y, x, 0, n)
			}
		})
	}
}
