package tensor

import (
	"encoding/binary"
	"math"
	"testing"
	"unsafe"
)

// TestTermLayout pins the layout accumulate_amd64.s reads a term with: the
// row offset at byte 0, the value at byte 8, 16 bytes a term.
func TestTermLayout(t *testing.T) {
	var x term
	if off, v, size := unsafe.Offsetof(x.off), unsafe.Offsetof(x.v), unsafe.Sizeof(x); off != 0 || v != 8 || size != 16 {
		t.Fatalf("term: off at %d, v at %d, size %d; the AVX2 body reads 0, 8, 16", off, v, size)
	}
}

// edgeFloats are the values fuzzFloat mixes into raw bit patterns: both
// zeros, both infinities, a NaN, subnormals, the extremes and ones.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022 / 3,
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// fuzzBytes hands out a fuzzed byte string eight bytes at a time, cycling,
// and zeros once it is empty.
type fuzzBytes struct {
	data []byte
	i    int
}

func (fb *fuzzBytes) next() uint64 {
	var w [8]byte
	for j := range w {
		if len(fb.data) > 0 {
			w[j] = fb.data[fb.i%len(fb.data)]
			fb.i++
		}
	}
	return binary.LittleEndian.Uint64(w[:])
}

// float is an edge value when the low byte's top bit is clear, else the
// eight bytes' own bit pattern.
func (fb *fuzzBytes) float() float64 {
	u := fb.next()
	if u&0x80 == 0 {
		return edgeFloats[int(u&0x7f)%len(edgeFloats)]
	}
	return math.Float64frombits(u)
}

// FuzzAccumulate: the AVX2 body writes what the Go loop does, to the bit
// (two NaNs need only both be NaN, as sameBits says), for any output width
// up to 40 columns, any term list over up to 8 rows of b, and any values —
// ±0, ±Inf, NaN, subnormals and raw bit patterns — into fresh or partial
// sums.
func FuzzAccumulate(f *testing.F) {
	if !useAVX2 {
		f.Skip("no AVX2 body on this CPU")
	}
	f.Add(uint8(16), uint8(3), uint8(5), true, []byte{0x81, 2, 3, 4, 5, 6, 7, 8, 1, 4})
	f.Add(uint8(39), uint8(8), uint8(64), false, []byte{0, 1, 2, 3, 4, 0xff, 0xf0, 0x7f, 0x80})
	f.Add(uint8(4), uint8(1), uint8(0), false, []byte{9})
	f.Fuzz(func(t *testing.T, cols, rows, nterms uint8, fresh bool, data []byte) {
		n, nr := 1+int(cols)%40, 1+int(rows)%8
		fb := &fuzzBytes{data: data}
		b := make([]float64, nr*n)
		for i := range b {
			b[i] = fb.float()
		}
		terms := make([]term, int(nterms)%(gatherBlock+1))
		for i := range terms {
			terms[i] = term{off: int(fb.next()%uint64(nr)) * n, v: fb.float()}
		}
		got, want := make(Vec, n), make(Vec, n)
		for i := range got {
			got[i] = fb.float()
			want[i] = got[i]
		}
		accumulate(got, b, terms, fresh)
		accumulateGo(want, b, terms, fresh)
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%d columns, %d terms, fresh %v: column %d = %v (%#x), Go loop %v (%#x)", n, len(terms), fresh,
					i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
}
