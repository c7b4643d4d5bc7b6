package tensor

// CPU feature detection and declarations for the assembly microkernels
// in simd_amd64.s and elu_amd64.s. The packed GEMM tier and the ELU
// kernels run only when the CPU reports AVX2, FMA, and OS support for ymm
// state (OSXSAVE + XCR0[2:1] == 11b); otherwise MatMul and friends run the
// legacy Go kernels. The AVX-512 kernels (the Z suffix) additionally need
// AVX512F and OS support for the opmask and zmm state.

//go:noescape
func dgemmTile4(kc int64, a0, a1, a2, a3 *float64, astride int64, bp *float64, bstride int64, c0, c1, c2, c3 *float64, acc int64)

//go:noescape
func dgemmTile1(kc int64, a0 *float64, astride int64, bp *float64, bstride int64, c0 *float64, acc int64)

//go:noescape
func dgemmTile8Z(kc int64, a *float64, arow, astride int64, bp *float64, bstride int64, c *float64, crow int64, acc int64)

//go:noescape
func sgemmTile4(kc int64, a0, a1, a2, a3 *float32, astride int64, bp *float32, bstride int64, c0, c1, c2, c3 *float32, acc int64)

//go:noescape
func sgemmTile1(kc int64, a0 *float32, astride int64, bp *float32, bstride int64, c0 *float32, acc int64)

//go:noescape
func eluBlock32(n int64, x, y *float32)

//go:noescape
func eluBlock64(n int64, x, y *float64) int64

//go:noescape
func eluBackBlock64(n int64, y, dy, dx *float64)

//go:noescape
func eluBlock64Z(n int64, x, y *float64) int64

//go:noescape
func eluBackBlock64Z(n int64, y, dy, dx *float64)

func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

func detectSIMD() bool {
	maxID, _, _, _ := cpuidRaw(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidRaw(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// OS must save/restore both xmm and ymm state.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidRaw(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

// detectSIMD512 reports the AVX-512 tier's prerequisites on top of
// detectSIMD: AVX512F (CPUID leaf 7 EBX bit 16) and an OS that saves the
// xmm, ymm, opmask and both zmm state components (XCR0 bits 1, 2, 5, 6, 7).
func detectSIMD512() bool {
	if !detectSIMD() {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuidRaw(7, 0)
	const avx512fBit = 1 << 16
	return ebx7&avx512fBit != 0
}
