package tensor

import "math"

// Float64 ELU kernel tier. EluRange and EluBackRange are the elementwise
// forward y = v (v > 0), math.Exp(v)-1 (v <= 0) and its backward
// dx = dy (y > 0), dy·(y+1) (y <= 0), the activation of every MLP in the
// model. They dispatch to AVX2 assembly kernels where available and fall
// back to plain Go loops.
//
// The contract is stronger than the f32 tier's: every path returns the
// bits of the plain Go expression, math.Exp(v)-1 included. The assembly
// replays the FMA branch of the runtime's archExp lane for lane
// (elu_amd64.s), so results are independent of chunk boundaries, thread
// count and SIMD availability, and the training golden files do not move.
// The kernel is enabled only when an init-time probe against math.Exp
// agrees bitwise (eluProbe64): if the runtime's exponential ever takes a
// different branch (a GODEBUG that masks FMA, or a new toolchain), the
// tier falls back to the Go loops instead of drifting.

var simdELU64 = detectSIMD() && eluProbe64()

// setSIMDELU64 forces the pure-Go float64 ELU paths when off (test hook);
// enabling requires hardware support and a passing probe. Returns the
// previous setting.
func setSIMDELU64(on bool) bool {
	prev := simdELU64
	simdELU64 = on && detectSIMD() && eluProbe64()
	return prev
}

// EluRange writes y[i] = ELU(x[i]) for i in [lo, hi), bitwise equal to
// x[i] > 0 ? x[i] : math.Exp(x[i])-1. x and y may alias.
func EluRange(y, x []float64, lo, hi int) {
	if hi <= lo {
		return
	}
	_, _ = x[hi-1], y[hi-1] // the kernel reads and writes up to hi
	i := lo
	if simdELU64 && simd512 {
		for hi-i >= 8 {
			i += int(eluBlock64Z(int64((hi-i)&^7), &x[i], &y[i]))
			if hi-i < 8 {
				break
			}
			// The kernel stopped at a group holding a NaN or a v < -708,
			// which archExp handles off its fast path.
			eluRangeGo(y, x, i, i+8)
			i += 8
		}
	}
	if simdELU64 {
		// Without AVX-512 every group, else the last 4 to 7 elements.
		for hi-i >= 4 {
			i += int(eluBlock64(int64((hi-i)&^3), &x[i], &y[i]))
			if hi-i < 4 {
				break
			}
			eluRangeGo(y, x, i, i+4) // a stop, as above
			i += 4
		}
	}
	eluRangeGo(y, x, i, hi)
}

func eluRangeGo(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		if v := x[i]; v > 0 {
			y[i] = v
		} else {
			y[i] = math.Exp(v) - 1
		}
	}
}

// EluBackRange writes the ELU input gradient dx[i] = dy[i] where the
// forward output y[i] > 0 and dy[i]·(y[i]+1) elsewhere (d/dx (e^x - 1) =
// e^x = y + 1), for i in [lo, hi). Branch-free in the kernel; bitwise
// equal to the Go expression on every path.
func EluBackRange(dx, y, dy []float64, lo, hi int) {
	if hi <= lo {
		return
	}
	_, _, _ = dx[hi-1], y[hi-1], dy[hi-1]
	i := lo
	if simdELU64 && simd512 {
		if n := (hi - i) &^ 7; n > 0 {
			eluBackBlock64Z(int64(n), &y[i], &dy[i], &dx[i])
			i += n
		}
	}
	if simdELU64 {
		if n := (hi - i) &^ 3; n > 0 {
			eluBackBlock64(int64(n), &y[i], &dy[i], &dx[i])
			i += n
		}
	}
	eluBackRangeGo(dx, y, dy, i, hi)
}

func eluBackRangeGo(dx, y, dy []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		g := dy[i]
		if v := y[i]; v > 0 {
			dx[i] = g
		} else {
			dx[i] = g * (v + 1)
		}
	}
}

// eluProbe64 runs the forward kernels (the 4-lane one, and the 8-lane
// one where the CPU has AVX-512) over a fixed spread of [-2, 0) and
// reports whether they match math.Exp(v)-1 bit for bit. The FMA and
// non-FMA archExp branches differ in the last bit on 14 of these inputs
// (further out the -1 rounds the difference away), so a runtime that
// does not take the FMA branch fails the probe.
func eluProbe64() bool {
	var x, y, z [256]float64
	for i := range x {
		x[i] = -float64(i+1)/128 - float64(i)*0x1p-20
	}
	eluBlock64(int64(len(x)), &x[0], &y[0])
	wide := detectSIMD512()
	if wide {
		eluBlock64Z(int64(len(x)), &x[0], &z[0])
	}
	for i, v := range x {
		want := math.Float64bits(math.Exp(v) - 1)
		if math.Float64bits(y[i]) != want || wide && math.Float64bits(z[i]) != want {
			return false
		}
	}
	return true
}
