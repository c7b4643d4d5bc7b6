//go:build !amd64

package tensor

// Non-amd64 builds never select the assembly microkernels: detectSIMD
// reports false, so the stubs below are unreachable. They exist to keep
// the packed-GEMM drivers building on every platform.

func detectSIMD() bool { return false }

func detectSIMD512() bool { return false }

func dgemmTile4(kc int64, a0, a1, a2, a3 *float64, astride int64, bp *float64, bstride int64, c0, c1, c2, c3 *float64, acc int64) {
	panic("tensor: SIMD kernel called without hardware support")
}

func dgemmTile1(kc int64, a0 *float64, astride int64, bp *float64, bstride int64, c0 *float64, acc int64) {
	panic("tensor: SIMD kernel called without hardware support")
}

func dgemmTile8Z(kc int64, a *float64, arow, astride int64, bp *float64, bstride int64, c *float64, crow int64, acc int64) {
	panic("tensor: SIMD kernel called without hardware support")
}

func sgemmTile4(kc int64, a0, a1, a2, a3 *float32, astride int64, bp *float32, bstride int64, c0, c1, c2, c3 *float32, acc int64) {
	panic("tensor: SIMD kernel called without hardware support")
}

func sgemmTile1(kc int64, a0 *float32, astride int64, bp *float32, bstride int64, c0 *float32, acc int64) {
	panic("tensor: SIMD kernel called without hardware support")
}

func eluBlock32(n int64, x, y *float32) {
	panic("tensor: SIMD kernel called without hardware support")
}

func eluBlock64(n int64, x, y *float64) int64 {
	panic("tensor: SIMD kernel called without hardware support")
}

func eluBackBlock64(n int64, y, dy, dx *float64) {
	panic("tensor: SIMD kernel called without hardware support")
}

func eluBlock64Z(n int64, x, y *float64) int64 {
	panic("tensor: SIMD kernel called without hardware support")
}

func eluBackBlock64Z(n int64, y, dy, dx *float64) {
	panic("tensor: SIMD kernel called without hardware support")
}
