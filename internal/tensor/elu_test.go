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
	// Each special alone in an otherwise ordinary 8-lane group, at every
	// lane position, so the kernels of both tiers and their hand-off see
	// it in every lane.
	var specials []float64
	for _, s := range eluSpecials64() {
		for lane := 0; lane < 8; lane++ {
			g := []float64{-0.25, 0.75, -3, -1e-3, -40, 2.5, -0.5, -1e-9}
			g[lane] = s
			specials = append(specials, g...)
		}
	}
	return map[string][]float64{
		"normals": normals, "wide negative": wide, "random bits": bits,
		"kernel-domain bits": domain, "subnormals": subnormals, "specials": specials,
	}
}

// eluPath is one float64 ELU code path: the Go loops, the 4-lane AVX2
// kernels, or the 8-lane AVX-512 kernels in front of them.
type eluPath struct {
	name       string
	simd, wide bool
}

// eluPaths returns the paths this host can run, logging the ones it
// cannot, so a host without AVX-512 covers the rest and does not fail.
func eluPaths(t testing.TB) []eluPath {
	t.Helper()
	paths := []eluPath{{"go", false, false}}
	if !simdELU64 {
		t.Logf("no float64 ELU kernels on this host (kernel tier %s): Go path only", KernelTier())
		return paths
	}
	paths = append(paths, eluPath{"avx2", true, false})
	if detectSIMD512() {
		return append(paths, eluPath{"avx512", true, true})
	}
	t.Logf("no AVX-512 on this host: the 8-lane ELU kernels are not covered")
	return paths
}

// use selects the path and returns a func restoring the previous one.
func (p eluPath) use() (restore func()) {
	prevSIMD, prevWide := setSIMDELU64(p.simd), setSIMD512(p.wide)
	return func() { setSIMDELU64(prevSIMD); setSIMD512(prevWide) }
}

// TestEluRangeMatchesMathExp pins the tier's contract: EluRange equals
// v > 0 ? v : math.Exp(v)-1 bit for bit on every input class and every
// path. On AVX2 hardware it also demands that the kernel is enabled, so a
// toolchain whose archExp no longer matches the replayed instruction
// sequence fails here instead of silently falling back.
func TestEluRangeMatchesMathExp(t *testing.T) {
	if detectSIMD() && !simdELU64 {
		t.Fatal("AVX2+FMA present but the ELU probe rejected the kernel: math.Exp no longer " +
			"takes the archExp FMA branch that elu_amd64.s replays (new toolchain, or GODEBUG=cpu.fma=off)")
	}
	inputs := eluInputs64()
	for _, p := range eluPaths(t) {
		restore := p.use()
		for name, x := range inputs {
			y := make([]float64, len(x))
			EluRange(y, x, 0, len(x))
			for i, v := range x {
				if want := eluRef64(v); math.Float64bits(y[i]) != math.Float64bits(want) {
					restore()
					t.Fatalf("%s %s: elem %d input %v (%#016x): got %#016x want %#016x",
						p.name, name, i, v, math.Float64bits(v), math.Float64bits(y[i]), math.Float64bits(want))
				}
			}
		}
		restore()
	}
}

// TestEluRange64LockstepAcrossPaths runs EluRange on every path over
// unaligned ranges and split into random chunks, demanding the same bits
// as the reference each time: the 8- and 4-lane groups, the hand-off
// groups and the scalar tail all agree, so chunk boundaries, thread
// counts and the SIMD tier stay invisible.
func TestEluRange64LockstepAcrossPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	specials := eluSpecials64()
	paths := eluPaths(t)
	for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 1001, 4099} {
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
				for _, p := range paths {
					restore := p.use()
					y := make([]float64, n)
					for a := lo; a < hi; {
						b := min(hi, a+1+rng.Intn(37))
						EluRange(y, x, a, b)
						a = b
					}
					restore()
					for i := range x {
						want := 0.0
						if i >= lo && i < hi {
							want = eluRef64(x[i])
						}
						if math.Float64bits(y[i]) != math.Float64bits(want) {
							t.Fatalf("n=%d [%d,%d) %s elem %d input %v: got %#016x want %#016x",
								n, lo, hi, p.name, i, x[i], math.Float64bits(y[i]), math.Float64bits(want))
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
// bit, NaN payloads included, on every path and over unaligned ranges,
// with each special value at each of the 8 lanes of a group.
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
	paths := eluPaths(t)
	for _, n := range []int{1, 4, 7, 8, 15, 64, 1003, 1 << 14} {
		y := make([]float64, n)
		dy := make([]float64, n)
		for i := range y {
			y[i], dy[i] = pick(), pick()
		}
		if n == 1<<14 {
			// Every special as y, then as dy, at every lane of an
			// 8-lane group of ordinary values.
			i := 0
			for _, s := range specials {
				for lane := 0; lane < 8; lane++ {
					y[i+lane], dy[i+8+lane] = s, s
					i += 16
				}
			}
		}
		for _, lo := range []int{0, 1, 3} {
			if lo >= n {
				continue
			}
			for _, p := range paths {
				restore := p.use()
				dx := make([]float64, n)
				EluBackRange(dx, y, dy, lo, n)
				restore()
				for i := lo; i < n; i++ {
					if want := eluBackRef64(y[i], dy[i]); math.Float64bits(dx[i]) != math.Float64bits(want) {
						t.Fatalf("n=%d lo=%d %s elem %d y=%v dy=%v: got %#016x want %#016x",
							n, lo, p.name, i, y[i], dy[i], math.Float64bits(dx[i]), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// FuzzEluRange checks EluRange against math.Exp on arbitrary float64
// bits, on every path: the fuzzed values fill one 8-lane group (two
// 4-lane groups) plus a scalar tail, at an aligned and an unaligned
// start.
func FuzzEluRange(f *testing.F) {
	for _, s := range eluSpecials64() {
		f.Add(math.Float64bits(s), math.Float64bits(-s), math.Float64bits(s/3), uint64(0))
	}
	paths := eluPaths(f)
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		x := make([]float64, 9)
		for i, u := range []uint64{a, b, c, d, d, c, b, a, a} {
			x[i] = math.Float64frombits(u)
		}
		for _, p := range paths {
			for _, lo := range []int{0, 1} {
				y := make([]float64, len(x))
				restore := p.use()
				EluRange(y, x, lo, len(x))
				restore()
				for i := lo; i < len(x); i++ {
					if want := eluRef64(x[i]); math.Float64bits(y[i]) != math.Float64bits(want) {
						t.Fatalf("%s lo=%d elem %d input %#016x: got %#016x want %#016x",
							p.name, lo, i, math.Float64bits(x[i]), math.Float64bits(y[i]), math.Float64bits(want))
					}
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
	for _, p := range eluPaths(b) {
		b.Run(p.name, func(b *testing.B) {
			defer p.use()()
			b.SetBytes(n * 8)
			for i := 0; i < b.N; i++ {
				EluRange(y, x, 0, n)
			}
		})
	}
}
