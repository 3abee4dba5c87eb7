package transport

import (
	"bytes"
	"io"
	"testing"
)

// benchFloats is a gradient-sized payload: 1024 float64s = 8 KiB on the
// wire, the ballpark of one MLP layer's tensor in the emulation configs.
var benchFloats = func() []float64 {
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = float64(i) * 0.5
	}
	return xs
}()

// BenchmarkFrameWriter_WriteFloats is the hot-path single-write form:
// encode straight into the reusable scratch, flush once.
func BenchmarkFrameWriter_WriteFloats(b *testing.B) {
	fw := NewFrameWriter(io.Discard)
	b.SetBytes(int64(headerSize + 8*len(benchFloats)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := fw.WriteFloats(Push, 1, 2, benchFloats); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameWriter_Batch8 stages eight push+pull-request pairs and
// flushes them as one write — the Parameter-Box-style batched message of
// one scheduler send.
func BenchmarkFrameWriter_Batch8(b *testing.B) {
	fw := NewFrameWriter(io.Discard)
	pull := Frame{Type: PullReq}
	b.SetBytes(int64(8 * (2*headerSize + 8*len(benchFloats))))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for t := uint32(0); t < 8; t++ {
			if err := fw.AppendFloats(Push, 1, t, benchFloats); err != nil {
				b.Fatal(err)
			}
			pull.Iter, pull.Tensor = 1, t
			if err := fw.AppendFrame(&pull); err != nil {
				b.Fatal(err)
			}
		}
		if err := fw.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameReader_Pooled reads one gradient frame per op with pooled
// payloads and a disciplined recycle — the server read loop's steady
// state.
func BenchmarkFrameReader_Pooled(b *testing.B) {
	var enc bytes.Buffer
	fw := NewFrameWriter(&enc)
	if err := fw.WriteFloats(Push, 1, 2, benchFloats); err != nil {
		b.Fatal(err)
	}
	stream := enc.Bytes()
	rd := bytes.NewReader(stream)
	fr := NewFrameReader(rd, NewPayloadPool())
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rd.Reset(stream)
		f, err := fr.Read()
		if err != nil {
			b.Fatal(err)
		}
		fr.Recycle(f)
	}
}

// BenchmarkDecodeFloatsInto measures the pooled decode used by push and
// pull handlers.
func BenchmarkDecodeFloatsInto(b *testing.B) {
	payload := encodeFloats(benchFloats)
	dst := make([]float64, len(benchFloats))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeFloatsInto(dst, payload); err != nil {
			b.Fatal(err)
		}
	}
}
