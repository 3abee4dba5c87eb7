package transport

import (
	"bytes"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// encodeFloats is xs as a frame payload, taken from the writer that ships
// it; decodeFloats is the receive-side decode.
func encodeFloats(xs []float64) []byte {
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).WriteFloats(Push, 0, 0, xs); err != nil {
		panic(err)
	}
	return buf.Bytes()[headerSize:]
}

func decodeFloats(b []byte) ([]float64, error) {
	n, err := FloatCount(b)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	return out, DecodeFloatsInto(out, b)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Frame{Type: Push, Iter: 7, Tensor: 42, Payload: []byte{1, 2, 3}}
	if err := NewFrameWriter(&buf).WriteFrame(in); err != nil {
		t.Fatal(err)
	}
	out, err := NewFrameReader(&buf, nil).Read()
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != Push || out.Iter != 7 || out.Tensor != 42 || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestFrameSequenceOverStream(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	for i := 0; i < 10; i++ {
		if err := fw.WriteFrame(&Frame{Type: PullReq, Iter: uint32(i), Tensor: uint32(i * 2), Payload: make([]byte, i)}); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf, nil)
	for i := 0; i < 10; i++ {
		f, err := fr.Read()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != PullReq || f.Iter != uint32(i) || len(f.Payload) != i {
			t.Fatalf("frame %d = %+v", i, f)
		}
	}
	if _, err := fr.Read(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	NewFrameWriter(&buf).WriteFrame(&Frame{Type: Push, Payload: []byte{1, 2, 3, 4}})
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := NewFrameReader(bytes.NewReader(trunc), nil).Read(); err == nil {
		t.Fatal("expected error on truncated frame")
	}
}

func TestReadFrameHugeLengthRejected(t *testing.T) {
	hdr := make([]byte, headerSize)
	hdr[0] = byte(Push)
	hdr[9] = 0xff
	hdr[10] = 0xff
	hdr[11] = 0xff
	hdr[12] = 0xff
	if _, err := NewFrameReader(bytes.NewReader(hdr), nil).Read(); err == nil {
		t.Fatal("expected error on oversized length prefix")
	}
}

func TestFloatCodecRoundTrip(t *testing.T) {
	in := []float64{0, 1, -1, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	out, err := decodeFloats(encodeFloats(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("roundtrip[%d] = %v, want %v", i, out[i], in[i])
		}
	}
}

func TestDecodeFloatsBadLength(t *testing.T) {
	if _, err := decodeFloats(make([]byte, 9)); err == nil {
		t.Fatal("expected error")
	}
}

func TestPropertyFloatCodec(t *testing.T) {
	f := func(xs []float64) bool {
		out, err := decodeFloats(encodeFloats(xs))
		if err != nil || len(out) != len(xs) {
			return false
		}
		for i := range xs {
			if out[i] != xs[i] && !(math.IsNaN(out[i]) && math.IsNaN(xs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFloatPoolReuse mirrors TestPayloadPoolReuse for decoded buffers: a
// recycled slice serves the next fitting Get, sub-minimum slices are not
// retained, and an empty request is non-nil.
func TestFloatPoolReuse(t *testing.T) {
	var p FloatPool
	b := p.Get(20)
	if len(b) != 20 || cap(b) != 32 {
		t.Fatalf("Get(20): len %d cap %d", len(b), cap(b))
	}
	first := &b[0]
	p.Put(b)
	if c := p.Get(30); len(c) != 30 || &c[0] != first {
		t.Fatal("Get(30) did not reuse the recycled 32-cap slice")
	}
	p.Put(make([]float64, 4)) // below min class: dropped
	if d := p.Get(4); cap(d) < 16 {
		t.Fatalf("small Get should round up to the min class, cap %d", cap(d))
	}
	if e := p.Get(0); e == nil || len(e) != 0 {
		t.Fatalf("Get(0) = %v, want non-nil empty", e)
	}
}

func TestLimiterShapesThroughput(t *testing.T) {
	l := NewLimiter(1e6, 1e4) // 1 MB/s, 10 KB burst
	// 40 KB through a 1 MB/s limiter ≈ 30 ms of shaping beyond the burst.
	start := time.Now()
	l.Wait(40_000, nil)
	elapsed := time.Since(start)
	if elapsed < 20*time.Millisecond {
		t.Fatalf("shaping too weak: %v", elapsed)
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("shaping too strong: %v", elapsed)
	}
}

func TestLimiterBurstIsFree(t *testing.T) {
	var slept time.Duration
	l := NewLimiter(1e3, 1e6)
	l.sleep = func(d time.Duration) { slept += d }
	l.Wait(1000, nil) // well inside burst
	if slept != 0 {
		t.Fatalf("slept %v inside burst", slept)
	}
}

func TestLimiterBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewLimiter(0, 1)
}

func TestPipeCarriesFrames(t *testing.T) {
	a, b := Pipe(0, 0)
	defer a.Close()
	defer b.Close()
	done := make(chan []float64, 1)
	go func() {
		f, err := NewFrameReader(b, nil).Read()
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		vals, err := decodeFloats(f.Payload)
		if err != nil || f.Tensor != 9 {
			t.Errorf("frame %+v: %v", f, err)
		}
		done <- vals
	}()
	if err := NewFrameWriter(a).WriteFloats(PullResp, 3, 9, []float64{1.5, -2.5}); err != nil {
		t.Fatal(err)
	}
	if got := <-done; len(got) != 2 || got[0] != 1.5 || got[1] != -2.5 {
		t.Fatalf("got %v", got)
	}
}

func TestShapedPipeSlowsTransfer(t *testing.T) {
	// 200 KB at 1 MB/s should take ~130ms beyond the 64 KB burst.
	a, b := Pipe(1e6, 0)
	defer a.Close()
	defer b.Close()
	go func() {
		io.Copy(io.Discard, b)
	}()
	start := time.Now()
	if _, err := a.Write(make([]byte, 200_000)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 100*time.Millisecond {
		t.Fatalf("shaped write finished in %v, too fast", elapsed)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("shaped write took %v, too slow", elapsed)
	}
}

func TestConnInterface(t *testing.T) {
	var _ net.Conn = &Conn{}
}

func TestLimiterConcurrentUse(t *testing.T) {
	l := NewLimiter(1e9, 1e9) // effectively unshaped: just exercise races
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Wait(1000, nil)
			}
		}()
	}
	wg.Wait()
}

func TestLimiterSubByteBurstRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for burst < 1 byte")
		}
	}()
	NewLimiter(1e6, 0.5)
}

func TestLimiterWaitFractionalBurstTerminates(t *testing.T) {
	// Regression: chunk = int(burst) truncated a sub-byte burst to 0, so
	// Wait never decremented n and spun forever. The clamp admits one byte
	// per installment. Construct the pathological limiter directly — the
	// constructor now rejects it.
	l := &Limiter{rate: 1e6, burst: 0.25, last: time.Now(), sleep: func(time.Duration) {}}
	done := make(chan struct{})
	go func() {
		l.Wait(10, nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait with fractional burst never terminated")
	}
}
