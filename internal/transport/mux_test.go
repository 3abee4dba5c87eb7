package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
// for: a send parks once MaxCombinedWrite bytes sit unread — so no sender is
// ever more than one combined write ahead of its reader — a second stream's
// sender queues behind it, and Close wakes both with net.ErrClosed.
func TestMuxPipeIsBackPressure(t *testing.T) {
	a, _ := Pipe(0, 0) // the far end is never read
	src := NewMuxConn(a, MuxOptions{Streams: 2})
	// A frame within 8 bytes of MaxCombinedWrite fits the empty buffer and
	// returns; no frame fits behind it.
	if err := src.SendFloats(0, Push, 0, 0, make([]float64, (MaxCombinedWrite-MuxHeaderSize)/8)); err != nil {
		t.Fatalf("send into an empty buffer: %v", err)
	}
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- src.SendFloats(0, Push, 1, 0, make([]float64, 5)) }()
	notYet(t, first, "send into a full buffer")
	go func() { second <- src.SendFrame(1, &Frame{Type: PullReq}) }()
	notYet(t, second, "second stream's send behind a parked write")
	notYet(t, first, "send into a full buffer")

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
	a, b := net.Pipe() // a rendezvous: a write parks until the peer reads it
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
	a, b := net.Pipe() // a rendezvous: a write parks until the peer reads it
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

// countConn counts the Write calls that reach the conn beneath it.
type countConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// waitQueued spins until m has a write in progress and n batches queued
// behind it. It allocates nothing, so allocation tests may call it.
func waitQueued(t testing.TB, m *MuxConn, n int) {
	t.Helper()
	for spins := 0; ; spins++ {
		m.wmu.Lock()
		writing, queued := m.writing, len(m.queue)
		m.wmu.Unlock()
		if writing && queued == n {
			return
		}
		if spins > 1e7 {
			t.Fatalf("write queue: writing %v with %d queued, want %d queued behind a write", writing, queued, n)
		}
		runtime.Gosched()
	}
}

// StageSends ships each batch from a goroutine of its own and returns once
// the first is the write in progress — parked, when nobody reads the pipe —
// and the rest wait behind it in the write queue, in the given order: the
// first write carries batches[0] alone, the combined writes after it the
// others, oldest first. The i-th channel delivers batches[i]'s SendBatch
// result.
func StageSends(t testing.TB, m *MuxConn, batches []*MuxBatch) []chan error {
	t.Helper()
	res := make([]chan error, len(batches))
	for i, b := range batches {
		res[i] = make(chan error, 1)
		go func(b *MuxBatch, res chan error) { res <- m.SendBatch(b) }(b, res[i])
		waitQueued(t, m, i)
	}
	return res
}

// parked fails the test if any of chs delivers within a short grace
// period: every sender behind them must still be blocked.
func parked(t *testing.T, what string, chs ...chan error) {
	t.Helper()
	time.Sleep(50 * time.Millisecond)
	for i, ch := range chs {
		select {
		case err := <-ch:
			t.Fatalf("%s: sender %d returned (err=%v), want it parked", what, i, err)
		default:
		}
	}
}

// floatBatches builds one single-frame batch per entry of floats — batch i
// on stream i, a frame of floats[i] float64s — and the wire bytes each
// stages.
func floatBatches(t *testing.T, m *MuxConn, floats []int) (batches []*MuxBatch, wire [][]byte) {
	t.Helper()
	for s, n := range floats {
		b := m.NewBatch(uint32(s))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(100*s + i)
		}
		if err := b.AppendFloats(Push, uint32(s), 0, xs); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
		wire = append(wire, bytes.Clone(b.buf))
	}
	return batches, wire
}

// recordConn records the size of every Write that reaches the conn
// beneath it.
type recordConn struct {
	net.Conn
	mu    sync.Mutex
	sizes []int
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.sizes = append(c.sizes, len(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// TestMuxCombinedWrite: senders that queue behind a write in progress go
// out together as ONE conn write, byte for byte their batches in queue
// order, and each gets its own result. A write takes queued batches, oldest
// first, only while they fit MaxCombinedWrite — the rest wait for the next
// write — and a batch larger than that goes out whole, alone.
func TestMuxCombinedWrite(t *testing.T) {
	a, b := net.Pipe() // a rendezvous: a write parks until the peer reads it
	rc := &recordConn{Conn: a}
	src := NewMuxConn(rc, MuxOptions{Streams: 6})
	defer src.Close()
	defer b.Close()
	// Three frames of `third` floats fill all but ~370 bytes of the bound,
	// so a 100-float frame no longer fits behind them.
	third := MaxCombinedWrite/3/8 - MuxHeaderSize
	batches, wire := floatBatches(t, src, []int{1, third, third, third, 100, 2 * MaxCombinedWrite / 8})
	res := StageSends(t, src, batches)
	got, err := io.ReadAll(io.LimitReader(b, int64(len(bytes.Join(wire, nil)))))
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range res {
		if err := <-ch; err != nil {
			t.Fatalf("sender %d: %v", i, err)
		}
	}
	if !bytes.Equal(got, bytes.Join(wire, nil)) {
		t.Fatal("wire bytes are not the batches in queue order")
	}
	// The first batch alone (the parked write), the three that fit, the one
	// that does not fit behind them, the oversized one alone.
	want := []int{len(wire[0]), len(wire[1]) + len(wire[2]) + len(wire[3]), len(wire[4]), len(wire[5])}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if !slices.Equal(rc.sizes, want) {
		t.Fatalf("writes of %v bytes, want %v (bound %d)", rc.sizes, want, MaxCombinedWrite)
	}
}

// TestMuxCombinedWritesInOrder: many senders shipping multi-frame batches
// at once — every frame arrives byte-identical and in its sender's order,
// the frames of one batch arrive back to back, and contention costs the
// wire fewer writes than batches.
func TestMuxCombinedWritesInOrder(t *testing.T) {
	a, b := net.Pipe() // a rendezvous: a write parks until the peer reads it
	const senders, rounds = 8, 40
	cc := &countConn{Conn: a}
	src := NewMuxConn(cc, MuxOptions{Streams: senders})
	dst := NewMuxConn(b, MuxOptions{Streams: senders, Pool: NewPayloadPool()})
	defer src.Close()
	defer dst.Close()
	// frames is the frame count of sender s's batch r; payload its frame j's
	// floats.
	frames := func(s, r int) int { return 1 + (s+r)%3 }
	payload := func(s, r, j int) []float64 {
		xs := make([]float64, (7*s+r+j)%23)
		for i := range xs {
			xs[i] = float64(s<<20 | r<<10 | j<<5 | i)
		}
		return xs
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				bt := src.NewBatch(uint32(s))
				for j := 0; j < frames(s, r); j++ {
					if err := bt.AppendFloats(Push, uint32(r), uint32(j), payload(s, r, j)); err != nil {
						t.Error(err)
					}
				}
				if err := src.SendBatch(bt); err != nil {
					t.Errorf("sender %d batch %d: %v", s, r, err)
					return
				}
			}
		}(s)
	}
	close(start)
	// Contention, for certain: one sender's first batch parks in a write
	// nobody reads and every other sender's queues behind it.
	waitQueued(t, src, senders-1)

	next := make([]int, senders) // next batch per sender
	for batches := 0; batches < senders*rounds; batches++ {
		// One whole batch: its frames arrive back to back.
		var s0 uint32
		for j := 0; ; j++ {
			s, f, err := dst.Read()
			if err != nil {
				t.Fatal(err)
			}
			if j == 0 {
				s0 = s
			} else if s != s0 {
				t.Fatalf("frame of sender %d inside sender %d's batch: a batch was split on the wire", s, s0)
			}
			r := next[s]
			wantWire := appendFloats(nil, payload(int(s), r, j))
			if f.Type != Push || int(f.Iter) != r || int(f.Tensor) != j || !bytes.Equal(f.Payload, wantWire) {
				t.Fatalf("sender %d: got %v iter %d tensor %d (%d bytes), want batch %d frame %d (%d bytes)",
					s, f.Type, f.Iter, f.Tensor, len(f.Payload), r, j, len(wantWire))
			}
			dst.Done(s, f)
			if j+1 == frames(int(s), r) {
				break
			}
		}
		next[s0]++
	}
	wg.Wait()
	if w := cc.writes.Load(); w >= senders*rounds {
		t.Fatalf("%d contended batches took %d conn writes, want fewer", senders*rounds, w)
	}
	t.Logf("%d batches in %d conn writes", senders*rounds, cc.writes.Load())
}

// TestMuxCombinedWriteIsBackPressure: a combined write keeps the pipe's
// contract for every sender in it — none returns before the peer has read
// its bytes, and each returns once they are.
func TestMuxCombinedWriteIsBackPressure(t *testing.T) {
	a, b := net.Pipe() // a rendezvous: a write parks until the peer reads it
	src := NewMuxConn(a, MuxOptions{Streams: 5})
	defer src.Close()
	defer b.Close()
	batches, wire := floatBatches(t, src, []int{1, 4, 7, 10, 13})
	res := StageSends(t, src, batches)
	parked(t, "nothing read", res...)

	// Read the first write: its sender alone may return.
	if _, err := io.ReadFull(b, make([]byte, len(wire[0]))); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-res[0]:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first sender still parked after its bytes were read")
	}
	// Read all but the last byte of the combined write behind it: every
	// sender in it has a byte unread, the last sender only its last.
	rest := len(bytes.Join(wire[1:], nil))
	if _, err := io.ReadFull(b, make([]byte, rest-1)); err != nil {
		t.Fatal(err)
	}
	parked(t, "combined write one byte short", res[1:]...)
	if _, err := io.ReadFull(b, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	for i, ch := range res[1:] {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("sender %d: %v", i+1, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("sender %d still parked after its bytes were read", i+1)
		}
	}
}

// TestMuxCombinedWriteSteadyStateAllocs: a contended round — a write in
// progress with senders queued behind it, shipped as two conn writes —
// allocates nothing once the batch pool, the queue and the concatenation
// buffer are warm.
func TestMuxCombinedWriteSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const senders = 4
	a, b := net.Pipe() // a rendezvous: a write parks until the peer reads it
	cc := &countConn{Conn: a}
	src := NewMuxConn(cc, MuxOptions{Streams: senders})
	dst := NewMuxConn(b, MuxOptions{Streams: senders, Pool: NewPayloadPool()})
	defer src.Close()
	defer dst.Close()
	start := make([]chan struct{}, senders)
	done := make(chan error, senders)
	xs := []float64{1, 2, 3}
	for s := range start {
		start[s] = make(chan struct{})
		go func(s int) {
			for range start[s] {
				done <- src.SendFloats(uint32(s), Push, 0, 0, xs)
			}
		}(s)
	}
	defer func() {
		for _, ch := range start {
			close(ch)
		}
	}()
	round := func() {
		for s := range start {
			start[s] <- struct{}{}
			waitQueued(t, src, s)
		}
		for range senders {
			s, f, err := dst.Read()
			if err != nil {
				t.Fatal(err)
			}
			dst.Done(s, f)
		}
		for range senders {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	w0 := cc.writes.Load()
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, round); allocs != 0 {
		t.Fatalf("contended round allocates %.1f objects, want 0", allocs)
	}
	if w := cc.writes.Load() - w0; w != 2*(runs+1) {
		t.Fatalf("%d rounds took %d conn writes, want 2 each", runs+1, w)
	}
}

// TestBatchOnRejectsUnknownStream: a batch points its frames only at the
// conn's streams.
func TestBatchOnRejectsUnknownStream(t *testing.T) {
	b := NewMuxConn(&memConn{}, MuxOptions{Streams: 2}).NewBatch(1)
	b.On(0)
	defer func() {
		if recover() == nil {
			t.Fatal("On(2) on a two-stream conn did not panic")
		}
	}()
	b.On(2)
}
