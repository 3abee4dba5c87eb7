//go:build !amd64

package tensor

// useAVX2 is false off amd64: accumulate runs its Go loop.
var useAVX2 = false

// accumulateAVX2 exists only on amd64; useAVX2 never selects it here.
func accumulateAVX2(or, b []float64, terms []term, fresh bool) {
	panic("tensor: no AVX2 kernel on this architecture")
}
