package transport

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// memConn is a single-threaded in-memory net.Conn: writes append to a
// buffer, reads consume it (EOF when drained). It makes byte-level mux
// assertions deterministic — no goroutines, no rendezvous.
type memConn struct {
	buf bytes.Buffer
}

func (c *memConn) Read(p []byte) (int, error)         { return c.buf.Read(p) }
func (c *memConn) Write(p []byte) (int, error)        { return c.buf.Write(p) }
func (c *memConn) Close() error                       { return nil }
func (c *memConn) LocalAddr() net.Addr                { return nil }
func (c *memConn) RemoteAddr() net.Addr               { return nil }
func (c *memConn) SetDeadline(t time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(t time.Time) error { return nil }

// TestMuxWireFormat pins the tagged-frame layout: a mux frame is exactly
// the 4-byte little-endian stream id followed by the bytes the untagged
// FrameWriter codec emits for the same frame.
func TestMuxWireFormat(t *testing.T) {
	c := &memConn{}
	m := NewMuxConn(c, MuxOptions{Streams: 4})
	xs := []float64{1.5, -2.25, 0}
	if err := m.SendFloats(2, Push, 7, 3, xs); err != nil {
		t.Fatal(err)
	}
	if err := m.SendFrame(1, &Frame{Type: PullReq, Iter: 9, Tensor: 0}); err != nil {
		t.Fatal(err)
	}

	var want bytes.Buffer
	fw := NewFrameWriter(&want)
	want.Write([]byte{2, 0, 0, 0})
	fw.WriteFloats(Push, 7, 3, xs)
	want.Write([]byte{1, 0, 0, 0})
	fw.WriteFrame(&Frame{Type: PullReq, Iter: 9, Tensor: 0})
	if !bytes.Equal(c.buf.Bytes(), want.Bytes()) {
		t.Fatalf("wire bytes mismatch:\n got %x\nwant %x", c.buf.Bytes(), want.Bytes())
	}
}

// TestMuxBatchByteIdenticalToSingles pins the batching contract for mux
// batches, like the FrameWriter equivalent: staging N frames and sending
// once emits exactly the bytes of N single-frame sends.
func TestMuxBatchByteIdenticalToSingles(t *testing.T) {
	single := &memConn{}
	ms := NewMuxConn(single, MuxOptions{Streams: 2})
	if err := ms.SendFloats(1, Push, 3, 0, []float64{4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := ms.SendFrame(1, &Frame{Type: PullReq, Iter: 3, Tensor: 0}); err != nil {
		t.Fatal(err)
	}

	batched := &memConn{}
	mb := NewMuxConn(batched, MuxOptions{Streams: 2})
	b := mb.NewBatch(1)
	if err := b.AppendFloats(Push, 3, 0, []float64{4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendFrame(&Frame{Type: PullReq, Iter: 3, Tensor: 0}); err != nil {
		t.Fatal(err)
	}
	if err := mb.SendBatch(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(single.buf.Bytes(), batched.buf.Bytes()) {
		t.Fatalf("batched bytes differ from sequential:\n got %x\nwant %x",
			batched.buf.Bytes(), single.buf.Bytes())
	}
}

// TestMuxRoundTripInterleaved drives frames from several streams through
// one pipe and checks per-stream order and payload integrity on the far
// side.
func TestMuxRoundTripInterleaved(t *testing.T) {
	a, b := Pipe(0, 0)
	const streams, frames = 4, 8
	src := NewMuxConn(a, MuxOptions{Streams: streams})
	dst := NewMuxConn(b, MuxOptions{Streams: streams, Pool: NewPayloadPool()})
	defer src.Close()
	defer dst.Close()

	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				xs := []float64{float64(s), float64(i)}
				if err := src.SendFloats(uint32(s), Push, uint32(i), uint32(s), xs); err != nil {
					t.Errorf("stream %d frame %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}

	got := make([]int, streams) // next expected iter per stream
	for n := 0; n < streams*frames; n++ {
		s, f, err := dst.Read()
		if err != nil {
			t.Fatalf("read %d: %v", n, err)
		}
		if f.Type != Push || int(f.Tensor) != int(s) {
			t.Fatalf("stream %d: frame %+v", s, f)
		}
		if int(f.Iter) != got[s] {
			t.Fatalf("stream %d: frame %d arrived, want %d (per-stream order broken)", s, f.Iter, got[s])
		}
		got[s]++
		vals, err := decodeFloats(f.Payload)
		if err != nil || len(vals) != 2 || vals[0] != float64(s) || vals[1] != float64(got[s]-1) {
			t.Fatalf("stream %d frame %d: payload %v err %v", s, f.Iter, vals, err)
		}
		dst.Done(s, f)
	}
	wg.Wait()
}

// TestMuxAppendFloatSlices: the vectored append stages exactly the bytes
// AppendFloats stages for the concatenation — empty slices and an empty list
// included — behind whatever the batch already holds, and refuses a frame
// whose slices together exceed MaxPayload before staging any of it.
func TestMuxAppendFloatSlices(t *testing.T) {
	// wire is what a batch holding one frame already, then stage's, sends.
	wire := func(stage func(*MuxBatch) error) []byte {
		c := &memConn{}
		m := NewMuxConn(c, MuxOptions{Streams: 4})
		b := m.NewBatch(2)
		if err := b.AppendFloats(Push, 1, 0, []float64{9}); err != nil {
			t.Fatal(err)
		}
		if err := stage(b); err != nil {
			t.Fatal(err)
		}
		if err := m.SendBatch(b); err != nil {
			t.Fatal(err)
		}
		return c.buf.Bytes()
	}
	for _, xss := range [][][]float64{
		{{1.5, -2.25}, {}, {3}, nil, {4, 5, 6}},
		{{}, nil},
		nil,
	} {
		var concat []float64
		for _, xs := range xss {
			concat = append(concat, xs...)
		}
		got := wire(func(b *MuxBatch) error { return b.AppendFloatSlices(Chunk, 7, 3, xss) })
		want := wire(func(b *MuxBatch) error { return b.AppendFloats(Chunk, 7, 3, concat) })
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: wire bytes mismatch:\n got %x\nwant %x", xss, got, want)
		}
	}

	// One 8 MiB slice listed 33 times declares 264 MiB without holding it.
	big := make([]float64, 1<<20)
	over := make([][]float64, MaxPayload/(8*len(big))+1)
	for i := range over {
		over[i] = big
	}
	c := &memConn{}
	m := NewMuxConn(c, MuxOptions{Streams: 1})
	b := m.NewBatch(0)
	if err := b.AppendFloatSlices(Chunk, 0, 0, over); err == nil {
		t.Fatalf("staged a %d-byte payload, max is %d", 8*len(big)*len(over), MaxPayload)
	}
	if err := b.AppendFloatSlices(Chunk, 0, 0, over[:1]); err != nil {
		t.Fatal(err)
	}
	if err := m.SendBatch(b); err != nil {
		t.Fatal(err)
	}
	if got, want := c.buf.Len(), MuxHeaderSize+8*len(big); got != want {
		t.Fatalf("after a refused append the batch sent %d bytes, want the one %d-byte frame", got, want)
	}
}

// TestMuxReadBufferEdges: the read buffer must be invisible to the frames —
// a zero-length frame, a payload several buffers long (its tail lands
// directly in the pooled slice), a small frame behind it and a payload of
// exactly the buffer's size all come out as they went in, in order.
func TestMuxReadBufferEdges(t *testing.T) {
	a, b := Pipe(0, 0)
	src := NewMuxConn(a, MuxOptions{Streams: 2})
	dst := NewMuxConn(b, MuxOptions{Streams: 2, Pool: NewPayloadPool()})
	defer src.Close()
	defer dst.Close()

	sizes := []int{0, 3*MuxReadBuffer/8 + 5, 2, MuxReadBuffer / 8, 0} // floats per frame
	sent := make(chan error, 1)
	go func() {
		for i, n := range sizes {
			xs := make([]float64, n)
			for j := range xs {
				xs[j] = float64(i*1000 + j)
			}
			if err := src.SendFloats(uint32(i%2), Push, uint32(i), 0, xs); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for i, n := range sizes {
		s, f, err := dst.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if int(s) != i%2 || f.Type != Push || int(f.Iter) != i || len(f.Payload) != 8*n {
			t.Fatalf("frame %d: got stream %d %v iter %d with %d payload bytes, want %d", i, s, f.Type, f.Iter, len(f.Payload), 8*n)
		}
		vals, err := decodeFloats(f.Payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		for j, v := range vals {
			if v != float64(i*1000+j) {
				t.Fatalf("frame %d element %d = %v, want %v", i, j, v, float64(i*1000+j))
			}
		}
		dst.Done(s, f)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// notYet fails the test if ch delivers within a short grace period: the
// sender behind it must still be parked.
func notYet(t *testing.T, ch <-chan error, what string) {
	t.Helper()
	select {
	case err := <-ch:
		t.Fatalf("%s returned (err=%v), want it parked", what, err)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestMuxPipeIsBackPressure pins the property the mux relies on the pipe
// for: a SendBatch into a pipe nobody reads does not return — so no sender
// is ever more than the one batch in the wire ahead of its reader — a second
// stream's sender queues behind it, and Close wakes both with net.ErrClosed.
func TestMuxPipeIsBackPressure(t *testing.T) {
	a, _ := Pipe(0, 0) // the far end is never read
	src := NewMuxConn(a, MuxOptions{Streams: 2})
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- src.SendFloats(0, Push, 0, 0, make([]float64, 5)) }()
	notYet(t, first, "send into an unread pipe")
	go func() { second <- src.SendFrame(1, &Frame{Type: PullReq}) }()
	notYet(t, second, "second stream's send behind a parked write")
	notYet(t, first, "send into an unread pipe")

	if err := src.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for name, ch := range map[string]chan error{"first": first, "second": second} {
		select {
		case err := <-ch:
			if !errors.Is(err, net.ErrClosed) {
				t.Errorf("%s sender woke with %v, want net.ErrClosed", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s sender still parked after Close", name)
		}
	}
	if err := src.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestMuxCloseUnblocksSender: Close must wake a sender parked in a write.
func TestMuxCloseUnblocksSender(t *testing.T) {
	a, b := Pipe(0, 0)
	src := NewMuxConn(a, MuxOptions{Streams: 1})
	dst := NewMuxConn(b, MuxOptions{Streams: 1})
	defer dst.Close()
	go func() { // drain the first frame so its Write completes
		dst.Read()
	}()

	if err := src.SendFloats(0, Push, 0, 0, make([]float64, 2)); err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() { sent <- src.SendFloats(0, Push, 1, 0, make([]float64, 2)) }()
	time.Sleep(20 * time.Millisecond)
	src.Close()
	if err := <-sent; err == nil {
		t.Fatal("send on closed mux succeeded")
	}
}

// TestDemuxClosesOnFirstError: the shared demux loop hands frames to the
// handler until it (or Read) fails, then closes the mux and returns that
// error — and because the close reaches the peer's end of the pipe too, a
// sender parked in a write on the far side unwinds on its own.
func TestDemuxClosesOnFirstError(t *testing.T) {
	a, b := Pipe(0, 0)
	src := NewMuxConn(a, MuxOptions{Streams: 1})
	dst := NewMuxConn(b, MuxOptions{Streams: 1})
	boom := errors.New("boom")
	release := make(chan struct{})
	dstDone := make(chan error, 1)
	go func() {
		dstDone <- dst.Demux(func(stream uint32, f *Frame) error {
			if f.Iter == 1 {
				<-release // hold the loop: nothing reads the pipe meanwhile
				return boom
			}
			return nil
		})
	}()
	srcDone := make(chan error, 1)
	go func() { srcDone <- src.Demux(func(uint32, *Frame) error { return nil }) }()

	if err := src.SendFrame(0, &Frame{Type: Push}); err != nil {
		t.Fatal(err)
	}
	// The frame the handler rejects; while the handler holds the demux loop
	// the next send parks in its write.
	if err := src.SendFrame(0, &Frame{Type: Push, Iter: 1}); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() { parked <- src.SendFrame(0, &Frame{Type: Push, Iter: 2}) }()
	notYet(t, parked, "send behind a held demux loop")
	close(release)
	if err := <-dstDone; err != boom {
		t.Fatalf("Demux returned %v, want the handler's error", err)
	}
	if err := <-srcDone; err == nil {
		t.Fatal("peer's Demux survived the close")
	}
	select {
	case err := <-parked:
		if err == nil {
			t.Fatal("parked send succeeded on a dead mux")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked sender still blocked after the demux loops exited")
	}
}

// TestMuxRejectsBadFrames: out-of-range streams and oversized length
// fields are protocol errors, not panics.
func TestMuxRejectsBadFrames(t *testing.T) {
	for name, raw := range map[string][]byte{
		"stream out of range": appendMuxHeader(nil, 9, Push, 0, 0, 0),
		"oversized payload": func() []byte {
			h := appendMuxHeader(nil, 0, Push, 0, 0, 0)
			h[13], h[14], h[15], h[16] = 0x01, 0x00, 0x00, 0x10 // MaxPayload+1
			return h
		}(),
	} {
		c := &memConn{}
		c.buf.Write(raw)
		m := NewMuxConn(c, MuxOptions{Streams: 2})
		if _, _, err := m.Read(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestMuxConcurrentStreamsHammer exercises the shared write lock and the
// batch freelist under load (and under -race).
func TestMuxConcurrentStreamsHammer(t *testing.T) {
	a, b := Pipe(0, 0)
	const streams, frames = 8, 40
	src := NewMuxConn(a, MuxOptions{Streams: streams})
	dst := NewMuxConn(b, MuxOptions{Streams: streams, Pool: NewPayloadPool()})
	defer src.Close()
	defer dst.Close()

	recvDone := make(chan error, 1)
	go func() {
		next := make([]uint32, streams)
		for n := 0; n < streams*frames; n++ {
			s, f, err := dst.Read()
			if err != nil {
				recvDone <- err
				return
			}
			if f.Iter != next[s] {
				recvDone <- errStreamOrder
				return
			}
			next[s]++
			dst.Done(s, f)
		}
		recvDone <- nil
	}()

	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			buf := make([]float64, 1+s%7)
			for i := 0; i < frames; i++ {
				if err := src.SendFloats(uint32(s), Push, uint32(i), 0, buf); err != nil {
					t.Errorf("stream %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}
}

var errStreamOrder = &net.AddrError{Err: "per-stream order broken"}
