package transport

// Stream multiplexing: many logical frame streams over ONE physical
// connection. A mux frame is the ordinary 13-byte frame header prefixed
// with a 4-byte little-endian stream id, so N workers can share a single
// conn (and a single reader goroutine on each side) instead of owning one
// conn — and two goroutines — each.
//
//	mux frame := stream(4) | type(1) | iter(4) | tensor(4) | len(4) | payload
//
// Back-pressure is the pipe. Outside tests every MuxConn rides an end of
// Pipe, whose direction buffers at most MaxCombinedWrite bytes: a Write
// returns once its bytes are buffered and parks while the buffer is full, so
// a SendBatch into a conn nobody reads returns until MaxCombinedWrite bytes
// sit unread and then does not. That is the window a rendezvous pipe already
// gave — a combined write of up to MaxCombinedWrite bytes parked in the wire
// ahead of the demux loop — so no stream gets further ahead of its reader
// than one combined write could. The mux adds no window of its own and
// starts no goroutine; frame type 4, the retired per-stream credit grant,
// stays reserved for a wire whose buffer outgrows that bound (a kernel
// socket's).
//
// Writes combine (group commit). A sender queues its batch; if no write is
// in progress it becomes the writer and ships the batches queued so far —
// up to MaxCombinedWrite bytes of them — as ONE conn.Write, then hands the
// writer role to the oldest sender still queued.
// Each pipe write costs a lock hand-off with the reader whatever its size,
// so N concurrent senders cost the wire one write instead of N, and the
// reader's buffer takes their frames a few at a time. A sender returns once
// the pipe has taken its bytes, frames keep their per-sender order and the
// queue is FIFO; a write that fails after n bytes fails exactly the batches
// that do not lie wholly inside those n.
//
// Deadlock discipline (a write parks while the peer's buffer is full): a
// demux loop must NEVER write on its own conn — two peers each writing from
// their only reader, both buffers full, would wait on each other forever.
// Writes belong to sender goroutines and to owner goroutines such as the ps
// server's responder.
//
// The receive side reads the conn through a small buffer (MuxReadBuffer,
// allocated on the first Read, so a send-only end pays nothing): a header
// and a small payload arrive in ONE conn.Read, and a fill takes whatever the
// pipe holds up to the buffer's size — several writes' frames, when senders
// ran ahead. A fill asks the conn once, so the reader is never more than
// MuxReadBuffer bytes ahead of its handler, and those bytes left the pipe's
// window only as the handler's reads made room. A payload the buffer cannot
// hold still lands directly in its pooled slice.
//
// Payloads flow through the same PayloadPool as FrameReader: the *Frame
// returned by Read borrows a pooled buffer, and Done recycles it.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// MuxHeaderSize is the wire size of a mux frame header: the 4-byte stream
// id plus the ordinary frame header.
const MuxHeaderSize = 4 + headerSize

// MuxReadBuffer is the size of a MuxConn's read buffer: room for a header
// and the few-hundred-byte payloads of a small-tensor run, small enough that
// a thousand conns cost a few megabytes. A frame that fits it, header
// included, costs the wire one read — the size a sender that can choose its
// frames (the collective's fused ops) fills them up to.
const MuxReadBuffer = 4 << 10

// MaxCombinedWrite bounds a combined write (a batch larger than it still
// goes out whole, alone), and a caller that packs many frames into one
// batch (the ps server's responder) bounds its batch by it too; it is also
// what one direction of a Pipe buffers. The reader takes at most
// MuxReadBuffer per pipe read, so a write many buffers long already costs it
// a hand-off per buffer: combining past that saves a partial read per batch
// and only grows the concatenation buffer — on a 64-worker shard pushing
// 3.5 KB each, by ~0.2 MB per pipe.
const MaxCombinedWrite = 16 * MuxReadBuffer

// MuxOptions configures a MuxConn.
type MuxOptions struct {
	// Streams is the number of logical streams (ids 0..Streams-1).
	Streams int
	// Pool recycles received payload buffers (nil = allocate per frame).
	Pool *PayloadPool
	// AutoGrant is inert: nothing reads it. It remains only because the
	// frozen benchmark/ module sets it, and goes in the benchmark-only PR
	// that also deletes internal/allreduce (ROADMAP item 1).
	AutoGrant bool
}

// MuxConn multiplexes tagged frame streams over one net.Conn. Writes
// (SendBatch and friends) are safe for concurrent use from any number of
// goroutines; Demux (or Read) must be called from a single goroutine (the
// demux loop).
type MuxConn struct {
	conn    net.Conn
	pool    *PayloadPool
	streams int

	// wmu guards the write queue, not the write: a sender queues its batch
	// under it and waits on its batch's cond (L = &wmu) until the writer has
	// settled it. writing is set while one sender owns conn.Write; queue
	// holds the batches waiting to be written, oldest first, spare the
	// array of the write in flight, wbuf the reused concatenation buffer —
	// the last two touched only by the writer.
	wmu     sync.Mutex
	writing bool
	queue   []*MuxBatch
	spare   []*MuxBatch
	wbuf    []byte

	closeOnce sync.Once
	closed    atomic.Bool // set before conn.Close: a failed send checks it
	closeErr  error

	// batchMu guards the freelist of this conn's large batches (smallBatches
	// takes the rest).
	batchMu   sync.Mutex
	batchFree []*MuxBatch

	// Demux state: Read has a single caller, like FrameReader.
	br     *bufio.Reader // over conn; nil until the first Read
	rhdr   [MuxHeaderSize]byte
	rframe Frame
}

// NewMuxConn wraps conn. The peer must be a MuxConn with the same stream
// count (the wire carries no negotiation).
func NewMuxConn(conn net.Conn, o MuxOptions) *MuxConn {
	if o.Streams <= 0 {
		panic("transport: MuxConn needs at least one stream")
	}
	return &MuxConn{conn: conn, pool: o.Pool, streams: o.Streams}
}

// Close closes the underlying connection, which fails every sender blocked
// in a write (they report net.ErrClosed). Idempotent: the connection is
// closed once and every call returns that close's error, so a Demux loop
// that got there first does not swallow it.
func (m *MuxConn) Close() error {
	m.closeOnce.Do(func() {
		m.closed.Store(true)
		m.closeErr = m.conn.Close()
	})
	return m.closeErr
}

// appendMuxHeader stages one mux frame header.
func appendMuxHeader(dst []byte, stream uint32, t MsgType, iter, tensor uint32, n int) []byte {
	var hdr [MuxHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], stream)
	hdr[4] = byte(t)
	binary.LittleEndian.PutUint32(hdr[5:9], iter)
	binary.LittleEndian.PutUint32(hdr[9:13], tensor)
	binary.LittleEndian.PutUint32(hdr[13:17], uint32(n))
	return append(dst, hdr[:]...)
}

// MuxBatch stages any number of frames, shipped with a single Write by
// SendBatch. Frames go on the stream the batch was made for until On points
// them at another. Obtained from NewBatch; the scratch is pooled and goes
// back (PutBatch) when the batch is sent or discarded.
type MuxBatch struct {
	stream  uint32
	streams uint32 // the conn's stream count
	buf     []byte

	// Write-queue state, guarded by the conn's wmu: the writer sets err
	// and settled, or lead when it hands this batch's sender the writer
	// role, and signals ready.
	ready   sync.Cond
	err     error
	settled bool
	lead    bool
}

// NewBatch returns a (pooled) empty batch for the given stream.
func (m *MuxConn) NewBatch(stream uint32) *MuxBatch {
	if int(stream) >= m.streams {
		panic(fmt.Sprintf("transport: stream %d of %d", stream, m.streams))
	}
	m.batchMu.Lock()
	if l := len(m.batchFree); l > 0 {
		b := m.batchFree[l-1]
		m.batchFree[l-1] = nil
		m.batchFree = m.batchFree[:l-1]
		m.batchMu.Unlock()
		b.stream = stream
		b.buf = b.buf[:0]
		return b
	}
	m.batchMu.Unlock()
	b, _ := smallBatches.Get().(*MuxBatch)
	if b == nil {
		b = new(MuxBatch)
	}
	b.stream, b.streams, b.buf = stream, uint32(m.streams), b.buf[:0]
	b.ready.L = &m.wmu
	return b
}

// On points the frames staged next at stream: one batch, hence one write,
// may carry frames of several streams.
func (b *MuxBatch) On(stream uint32) {
	if stream >= b.streams {
		panic(fmt.Sprintf("transport: stream %d of %d", stream, b.streams))
	}
	b.stream = stream
}

// smallBatches recycles batches across every MuxConn of the process. A conn
// holds as many batches at once as it has sends in flight, and a run builds
// its conns anew: a freelist per conn alone re-grew that many batches, and
// their scratch, for every run — more, the faster the wire. Only a batch
// whose scratch is at most a quarter of MaxCombinedWrite goes here (a small
// model's tensor frames fit); a larger one, such as a ps responder's batch
// packed up to the bound, stays on its own conn's freelist, so the small
// senders of the next run never inherit 64 KiB of scratch each.
var smallBatches sync.Pool

// PutBatch hands a batch back for reuse — SendBatch does, and a caller
// discarding an unsent batch must.
func (m *MuxConn) PutBatch(b *MuxBatch) {
	if cap(b.buf) <= MaxCombinedWrite/4 {
		b.ready.L, b.err = nil, nil // the pool must not keep this conn alive
		smallBatches.Put(b)
		return
	}
	m.batchMu.Lock()
	m.batchFree = append(m.batchFree, b)
	m.batchMu.Unlock()
}

// AppendFrame stages f. The payload is copied; f may be reused.
func (b *MuxBatch) AppendFrame(f *Frame) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("transport: payload %d exceeds max %d", len(f.Payload), MaxPayload)
	}
	b.buf = appendMuxHeader(b.buf, b.stream, f.Type, f.Iter, f.Tensor, len(f.Payload))
	b.buf = append(b.buf, f.Payload...)
	return nil
}

// AppendFloats stages a frame whose payload is xs in little-endian float64
// encoding, written directly into the scratch (no intermediate slice).
func (b *MuxBatch) AppendFloats(t MsgType, iter, tensor uint32, xs []float64) error {
	return b.AppendFloatSlices(t, iter, tensor, [][]float64{xs})
}

// AppendFloatSlices stages ONE frame whose payload is the slices of xss back
// to back — the wire bytes of their concatenation, without building it.
func (b *MuxBatch) AppendFloatSlices(t MsgType, iter, tensor uint32, xss [][]float64) error {
	n := 0
	for _, xs := range xss {
		n += 8 * len(xs)
	}
	if n > MaxPayload {
		return fmt.Errorf("transport: payload %d exceeds max %d", n, MaxPayload)
	}
	b.buf = appendMuxHeader(b.buf, b.stream, t, iter, tensor, n)
	for _, xs := range xss {
		b.buf = appendFloats(b.buf, xs)
	}
	return nil
}

// SendBatch ships the batch and hands the scratch back to the pool (even
// on error). The caller must not use b afterwards. It returns once the conn
// has taken the batch — on a Pipe, once its bytes are buffered for the
// peer: the batch joins the write queue, and the
// sender either becomes the writer — shipping the queue's head, its own
// batch included, as one conn.Write — or waits for the writer to settle it.
// A send that fails because this side called Close reports net.ErrClosed in
// place of the pipe's own io.ErrClosedPipe; any other error (an injected
// fault's, say) keeps its identity even when a Close — the demux loop's, on
// seeing the same fault — raced it.
func (m *MuxConn) SendBatch(b *MuxBatch) error {
	if len(b.buf) == 0 {
		m.PutBatch(b)
		return nil
	}
	m.wmu.Lock()
	if m.queue == nil { // first send: a receive-only end never pays for these
		q := make([]*MuxBatch, 0, 2*m.streams)
		m.queue, m.spare = q[:0:m.streams], q[m.streams:m.streams]
	}
	b.err, b.settled, b.lead = nil, false, false
	m.queue = append(m.queue, b)
	for m.writing && !b.settled && !b.lead {
		b.ready.Wait()
	}
	if !b.settled {
		// The writer role: b is at the head of the queue, so this write
		// settles it.
		m.writing = true
		m.flushLocked()
		if len(m.queue) > 0 {
			next := m.queue[0]
			next.lead = true
			next.ready.Signal()
		} else {
			m.writing = false
		}
	}
	err := b.err
	m.wmu.Unlock()
	m.PutBatch(b)
	return err
}

// flushLocked ships the queued batches, oldest first and up to
// MaxCombinedWrite bytes of them, as one conn.Write with wmu released for
// the write, and settles each: a batch whose bytes all lie below what the
// write delivered succeeded, every later one gets the write's error. The
// rest stay queued. Called with wmu held by the writer.
func (m *MuxConn) flushLocked() {
	pending := m.queue
	k, size := 1, len(pending[0].buf)
	for k < len(pending) && size+len(pending[k].buf) <= MaxCombinedWrite {
		size += len(pending[k].buf)
		k++
	}
	m.queue = append(m.spare, pending[k:]...)
	clear(pending[k:])
	pending = pending[:k]
	m.wmu.Unlock()
	buf := pending[0].buf
	if len(pending) > 1 {
		if m.wbuf == nil { // sized once: batches combine only up to the bound
			m.wbuf = make([]byte, 0, MaxCombinedWrite)
		}
		buf = m.wbuf[:0]
		for _, q := range pending {
			buf = append(buf, q.buf...)
		}
		m.wbuf = buf
	}
	n, err := m.conn.Write(buf)
	if errors.Is(err, io.ErrClosedPipe) && m.closed.Load() {
		err = net.ErrClosed
	}
	m.wmu.Lock()
	end := 0
	for i, q := range pending {
		if end += len(q.buf); err != nil && end > n {
			q.err = err
		}
		q.settled = true
		q.ready.Signal()
		pending[i] = nil
	}
	m.spare = pending[:0]
}

// SendFrame ships one frame on a stream (a single-frame batch).
func (m *MuxConn) SendFrame(stream uint32, f *Frame) error {
	b := m.NewBatch(stream)
	if err := b.AppendFrame(f); err != nil {
		m.PutBatch(b)
		return err
	}
	return m.SendBatch(b)
}

// SendFloats ships one float-payload frame on a stream.
func (m *MuxConn) SendFloats(stream uint32, t MsgType, iter, tensor uint32, xs []float64) error {
	b := m.NewBatch(stream)
	if err := b.AppendFloats(t, iter, tensor, xs); err != nil {
		m.PutBatch(b)
		return err
	}
	return m.SendBatch(b)
}

// Read deserializes the next frame. The returned Frame is reused by the
// next Read; its pooled payload is owned by the caller until Done hands it
// back. Single caller only (the demux loop).
func (m *MuxConn) Read() (uint32, *Frame, error) {
	if m.br == nil {
		m.br = bufio.NewReaderSize(m.conn, MuxReadBuffer)
	}
	if _, err := io.ReadFull(m.br, m.rhdr[:]); err != nil {
		return 0, nil, err
	}
	stream := binary.LittleEndian.Uint32(m.rhdr[0:4])
	n := binary.LittleEndian.Uint32(m.rhdr[13:17])
	if int64(stream) >= int64(m.streams) {
		return 0, nil, fmt.Errorf("transport: mux frame for stream %d of %d", stream, m.streams)
	}
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("transport: frame payload %d exceeds max %d", n, MaxPayload)
	}
	m.rframe.Type = MsgType(m.rhdr[4])
	m.rframe.Iter = binary.LittleEndian.Uint32(m.rhdr[5:9])
	m.rframe.Tensor = binary.LittleEndian.Uint32(m.rhdr[9:13])
	m.rframe.Payload = nil
	if n > 0 {
		var buf []byte
		if m.pool != nil {
			buf = m.pool.Get(int(n))
		} else {
			buf = make([]byte, n)
		}
		if _, err := io.ReadFull(m.br, buf); err != nil {
			if m.pool != nil {
				m.pool.Put(buf)
			}
			return 0, nil, err
		}
		m.rframe.Payload = buf
	}
	return stream, &m.rframe, nil
}

// Demux is the demux loop every owner of a MuxConn runs: read a frame, hand
// it to handle, Done it, repeat. handle must not write on this conn, and it
// keeps the payload past its return only by nil-ing f.Payload — Done is then
// a no-op, and the handler owns handing the buffer back to the pool the
// conn was built with. On the first read or handler error it closes
// the mux — a sender parked inside conn.Write, here or on the peer's end,
// only wakes on a read or a close, and no read will come once the reader is
// gone — and returns that error. It never returns nil. Like Read, single
// caller only.
func (m *MuxConn) Demux(handle func(stream uint32, f *Frame) error) error {
	for {
		stream, f, err := m.Read()
		if err == nil {
			err = handle(stream, f)
			m.Done(stream, f)
		}
		if err != nil {
			m.Close()
			return err
		}
	}
}

// Done ends a received frame's lifetime: the pooled payload is recycled.
// Every frame returned by Read should be Done'd once. The stream parameter
// is unused; it stays until the benchmark-only PR (ROADMAP item 1) because
// the frozen benchmark/ module passes it.
func (m *MuxConn) Done(_ uint32, f *Frame) {
	if f == nil || f.Payload == nil {
		return
	}
	if m.pool != nil {
		m.pool.Put(f.Payload)
	}
	f.Payload = nil
}
