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
	src := NewMuxConn(a, MuxOptions{Streams: streams, AutoGrant: true})
	dst := NewMuxConn(b, MuxOptions{Streams: streams, Pool: NewPayloadPool(), AutoGrant: true})
	defer src.Close()
	defer dst.Close()
	go src.Read() // absorb credit grants

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

// TestMuxCreditBlocksBurst pins the flow-control semantics: a stream that
// has consumed its window blocks in SendBatch until the receiver Done's a
// frame and the resulting grant arrives — and only that stream blocks.
func TestMuxCreditBlocksBurst(t *testing.T) {
	a, b := Pipe(0, 0)
	const window = 64
	src := NewMuxConn(a, MuxOptions{Streams: 2, Window: window, AutoGrant: true})
	dst := NewMuxConn(b, MuxOptions{Streams: 2, Window: window, Pool: NewPayloadPool(), AutoGrant: true})
	defer src.Close()
	defer dst.Close()
	go src.Read() // absorb credit grants

	// Receiver demux: park frames (copies) without granting until released.
	type recvd struct {
		stream uint32
		frame  Frame
	}
	frames := make(chan recvd, 16)
	go func() {
		for {
			s, f, err := dst.Read()
			if err != nil {
				return
			}
			frames <- recvd{s, *f}
		}
	}()

	payload := make([]float64, 5) // wire size 17 + 40 = 57 of the 64-byte window
	if err := src.SendFloats(0, Push, 0, 0, payload); err != nil {
		t.Fatal(err)
	}
	first := <-frames

	sent := make(chan error, 1)
	go func() { sent <- src.SendFloats(0, Push, 1, 0, payload) }()
	select {
	case err := <-sent:
		t.Fatalf("second burst sent without credit (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	// The other stream is unaffected by stream 0's exhaustion.
	if err := src.SendFloats(1, Push, 0, 0, payload); err != nil {
		t.Fatal(err)
	}
	<-frames

	// Granting stream 0's first frame unblocks the parked send.
	dst.Done(first.stream, &first.frame)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if got := <-frames; got.stream != 0 || got.frame.Iter != 1 {
		t.Fatalf("unexpected frame after grant: %+v", got)
	}
}

// TestMuxOversizedBatchAdmitted: a batch larger than the whole window must
// go through when the window is idle (progress guarantee), with the
// balance recovering as grants return.
func TestMuxOversizedBatchAdmitted(t *testing.T) {
	a, b := Pipe(0, 0)
	const window = 64
	src := NewMuxConn(a, MuxOptions{Streams: 1, Window: window, AutoGrant: true})
	dst := NewMuxConn(b, MuxOptions{Streams: 1, Window: window, Pool: NewPayloadPool(), AutoGrant: true})
	defer src.Close()
	defer dst.Close()
	go src.Read()

	big := make([]float64, 32) // 17 + 256 bytes, 5x the window
	done := make(chan error, 2)
	go func() {
		done <- src.SendFloats(0, Push, 0, 0, big)
		done <- src.SendFloats(0, Push, 1, 0, big)
	}()

	for i := 0; i < 2; i++ {
		s, f, err := dst.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if f.Iter != uint32(i) {
			t.Fatalf("frame %d out of order: %+v", i, f)
		}
		dst.Done(s, f)
		if err := <-done; err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
}

// TestMuxCloseUnblocksSender: Close must wake a sender parked on credit.
func TestMuxCloseUnblocksSender(t *testing.T) {
	a, b := Pipe(0, 0)
	src := NewMuxConn(a, MuxOptions{Streams: 1, Window: 32})
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
// error — and because the close reaches the peer's reader too, a sender
// parked in a credit reservation on the far side unwinds on its own.
func TestDemuxClosesOnFirstError(t *testing.T) {
	a, b := Pipe(0, 0)
	src := NewMuxConn(a, MuxOptions{Streams: 1, Window: 32})
	dst := NewMuxConn(b, MuxOptions{Streams: 1, Window: 32}) // no granter: credit never returns
	boom := errors.New("boom")
	dstDone := make(chan error, 1)
	go func() {
		dstDone <- dst.Demux(func(stream uint32, f *Frame) error {
			if f.Iter == 1 {
				return boom
			}
			return nil
		})
	}()
	srcDone := make(chan error, 1)
	go func() { srcDone <- src.Demux(func(uint32, *Frame) error { return nil }) }()

	// One header-only frame takes 17 of the 32-byte window; the next parks.
	if err := src.SendFrame(0, &Frame{Type: Push}); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() { parked <- src.SendFrame(0, &Frame{Type: Push}) }()
	select {
	case err := <-parked:
		t.Fatalf("second frame was not credit-parked (err %v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	// The frame the handler rejects goes in raw, past src's credit.
	if _, err := a.Write(appendMuxHeader(nil, 0, Push, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := <-dstDone; err != boom {
		t.Fatalf("Demux returned %v, want the handler's error", err)
	}
	if err := <-srcDone; err == nil {
		t.Fatal("peer's Demux survived the close")
	}
	select {
	case err := <-parked:
		if err == nil {
			t.Fatal("credit-parked send succeeded on a dead mux")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("credit-parked sender still blocked after the demux loops exited")
	}
}

// TestMuxRejectsBadFrames: out-of-range streams and malformed credit
// frames are protocol errors, not panics.
func TestMuxRejectsBadFrames(t *testing.T) {
	for name, raw := range map[string][]byte{
		"stream out of range": appendMuxHeader(nil, 9, Push, 0, 0, 0),
		"credit with payload": append(appendMuxHeader(nil, 0, Credit, 4, 0, 4), 1, 2, 3, 4),
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

// TestMuxConcurrentStreamsHammer exercises the shared write lock, the
// credit machinery, and both granters under load (and under -race).
func TestMuxConcurrentStreamsHammer(t *testing.T) {
	a, b := Pipe(0, 0)
	const streams, frames = 8, 40
	src := NewMuxConn(a, MuxOptions{Streams: streams, Window: 256, AutoGrant: true})
	dst := NewMuxConn(b, MuxOptions{Streams: streams, Pool: NewPayloadPool(), Window: 256, AutoGrant: true})
	defer src.Close()
	defer dst.Close()
	go src.Read()

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
