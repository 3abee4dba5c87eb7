package transport

import (
	"bytes"
	"io"
	"testing"
)

// TestFrameWriterByteIdenticalToSequential pins the batching contract: a
// FrameWriter flushing N staged frames emits exactly the bytes of the N
// frames written (and flushed) one at a time. Fault injectors and readers
// keyed on absolute stream offsets therefore cannot tell the paths apart.
func TestFrameWriterByteIdenticalToSequential(t *testing.T) {
	floats := []float64{1.5, -2.25, 3.125, 0}
	frames := []*Frame{
		{Type: Push, Iter: 1, Tensor: 0, Payload: encodeFloats(floats)},
		{Type: PullReq, Iter: 1, Tensor: 0},
		{Type: Push, Iter: 1, Tensor: 3, Payload: []byte{9, 8, 7}},
		{Type: PullResp, Iter: 2, Tensor: 1, Payload: nil},
	}

	var sequential bytes.Buffer
	sw := NewFrameWriter(&sequential)
	for _, f := range frames {
		if err := sw.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}

	var batched bytes.Buffer
	fw := NewFrameWriter(&batched)
	if err := fw.AppendFloats(Push, 1, 0, floats); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames[1:] {
		if err := fw.AppendFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(sequential.Bytes(), batched.Bytes()) {
		t.Fatalf("batched stream differs from sequential:\nseq  %x\nbatc %x",
			sequential.Bytes(), batched.Bytes())
	}
}

// TestFrameReaderPooledRoundTrip drives frames through the pooled
// reader, recycling each payload, and checks values survive.
func TestFrameReaderPooledRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	want := [][]float64{{1, 2, 3}, {}, {4.5}}
	for i, xs := range want {
		if err := fw.WriteFloats(Push, uint32(i), uint32(i), xs); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewPayloadPool()
	fr := NewFrameReader(&buf, pool)
	for i, xs := range want {
		f, err := fr.Read()
		if err != nil {
			t.Fatal(err)
		}
		if f.Iter != uint32(i) {
			t.Fatalf("frame %d: iter %d", i, f.Iter)
		}
		got, err := decodeFloats(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(xs) {
			t.Fatalf("frame %d: %v != %v", i, got, xs)
		}
		for j := range xs {
			if got[j] != xs[j] {
				t.Fatalf("frame %d: %v != %v", i, got, xs)
			}
		}
		fr.Recycle(f)
		if f.Payload != nil {
			t.Fatal("Recycle must clear the payload")
		}
	}
	if _, err := fr.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// TestPayloadPoolReuse checks the size-class bookkeeping: a recycled
// buffer serves the next fitting Get, and sub-minimum buffers are not
// retained.
func TestPayloadPoolReuse(t *testing.T) {
	p := NewPayloadPool()
	b := p.Get(100)
	if len(b) != 100 || cap(b) != 128 {
		t.Fatalf("Get(100): len %d cap %d", len(b), cap(b))
	}
	first := &b[:1][0]
	p.Put(b)
	c := p.Get(120)
	if len(c) != 120 {
		t.Fatalf("Get(120): len %d", len(c))
	}
	if &c[:1][0] != first {
		t.Fatal("Get(120) did not reuse the recycled 128-cap buffer")
	}
	p.Put(make([]byte, 8)) // below min class: dropped
	d := p.Get(8)
	if cap(d) < 64 {
		t.Fatalf("small Get should still round up to the min class, cap %d", cap(d))
	}
}

// TestFrameWriterZeroAllocsSteadyState asserts the write-side contract of
// the hot path: once the scratch has grown, staging float frames and
// flushing allocates nothing.
func TestFrameWriterZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	fw := NewFrameWriter(io.Discard)
	xs := make([]float64, 1024)
	pull := Frame{Type: PullReq, Iter: 1, Tensor: 2}
	// Warm the scratch to its steady-state capacity.
	if err := fw.WriteFloats(Push, 0, 0, xs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := fw.AppendFloats(Push, 1, 2, xs); err != nil {
			t.Fatal(err)
		}
		if err := fw.AppendFrame(&pull); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("write side allocated %v per batch in steady state, want 0", allocs)
	}
}

// TestFrameReaderZeroAllocsSteadyState asserts the read-side contract:
// with a pool and a disciplined Recycle after every Read, steady-state
// reads allocate nothing (every payload is a pool hit).
func TestFrameReaderZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	var enc bytes.Buffer
	fw := NewFrameWriter(&enc)
	xs := make([]float64, 512)
	if err := fw.WriteFloats(Push, 7, 9, xs); err != nil {
		t.Fatal(err)
	}
	stream := enc.Bytes()

	pool := NewPayloadPool()
	rd := bytes.NewReader(stream)
	fr := NewFrameReader(rd, pool)
	// Warm: the first read's pool miss seeds the class.
	f, err := fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	fr.Recycle(f)

	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(stream)
		f, err := fr.Read()
		if err != nil {
			t.Fatal(err)
		}
		fr.Recycle(f)
	})
	if allocs != 0 {
		t.Fatalf("pooled read side allocated %v per frame in steady state, want 0", allocs)
	}
}
