package tensor

// useAVX2 selects accumulate's AVX2 body: set once here, from the CPU, and
// flipped only by tests, which run every kernel case on both paths.
var useAVX2 = hasAVX2()

// accumulateAVX2 is accumulate for len(or) a multiple of 4, in
// accumulate_amd64.s. It reads b unchecked, at every term's offset plus
// [0, len(or)).
//
//go:noescape
func accumulateAVX2(or, b []float64, terms []term, fresh bool)

// cpuid executes CPUID for the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of extended control register 0: which
// register states the operating system saves and restores.
func xgetbv() (eax uint32)

// hasAVX2 reports whether this CPU has AVX2 and the operating system has
// enabled the YMM state it needs: CPUID's AVX and OSXSAVE bits (OSXSAVE
// first, since XGETBV faults without it), then XCR0's SSE and AVX bits,
// then CPUID leaf 7's AVX2 bit.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	const sseAndAVXState = 1<<1 | 1<<2
	if xgetbv()&sseAndAVXState != sseAndAVXState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
