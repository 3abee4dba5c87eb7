package transport

// Stream multiplexing: many logical frame streams over ONE physical
// connection. A mux frame is the ordinary 13-byte frame header prefixed
// with a 4-byte little-endian stream id, so N workers can share a single
// conn (and a single reader goroutine on each side) instead of owning one
// conn — and two goroutines — each.
//
//	mux frame := stream(4) | type(1) | iter(4) | tensor(4) | len(4) | payload
//
// Flow control is per-stream byte credit. Each stream starts with a full
// window of Window bytes; a data frame consumes its full wire size
// (MuxHeaderSize + payload) from its stream's window at the sender, and the
// receiver hands the bytes back with a Credit frame once the frame has been
// consumed (Done). A sender whose stream is out of credit blocks in
// SendBatch without holding the connection write lock, so one worker's
// burst can neither starve other streams of the writer nor run unboundedly
// ahead of the demux loop. Credit frames themselves are exempt from flow
// control (type Credit, grant amount in the Iter field, no payload).
//
// Deadlock discipline (net.Pipe writes block until the peer reads):
//
//   - A demux loop must NEVER write. MuxConn.Read consumes Credit frames
//     internally; Done only enqueues a pending grant. Grants reach the wire
//     through FlushGrants, called either by the embedded granter goroutine
//     (AutoGrant) or by an owner goroutine that also performs data writes
//     (the ps server's responder).
//   - Credit is reserved BEFORE the write lock is taken, so a blocked
//     stream never holds the lock.
//   - A batch larger than the whole window is admitted once the window is
//     full (nothing in flight); its stream's balance goes negative and
//     recovers as grants arrive, so oversized sends make progress instead
//     of livelocking.
//
// Payloads flow through the same PayloadPool as FrameReader: the *Frame
// returned by Read borrows a pooled buffer, and Done both recycles it and
// accounts the credit grant — one call ends the frame's lifetime.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
)

// MuxHeaderSize is the wire size of a mux frame header: the 4-byte stream
// id plus the ordinary frame header.
const MuxHeaderSize = 4 + headerSize

// DefaultStreamWindow is the per-stream credit window when MuxOptions
// leaves Window zero: large enough that a steady push/pull cadence never
// blocks, small enough that a runaway stream stays bounded.
const DefaultStreamWindow = 256 << 10

// MuxOptions configures a MuxConn.
type MuxOptions struct {
	// Streams is the number of logical streams (ids 0..Streams-1).
	Streams int
	// Window is the per-stream credit window in bytes (default
	// DefaultStreamWindow).
	Window int
	// Pool recycles received payload buffers (nil = allocate per frame).
	Pool *PayloadPool
	// AutoGrant runs an internal goroutine that flushes credit grants as
	// Done accumulates them. Leave false when an owner goroutine (one that
	// also writes data frames) calls FlushGrants itself — the ps server's
	// responder does, keeping the server at two goroutines per conn.
	AutoGrant bool
}

// MuxConn multiplexes tagged frame streams over one net.Conn. Writes
// (SendBatch and friends) are safe for concurrent use from any number of
// goroutines; Demux (or Read) and FlushGrants must each be called from a
// single goroutine (the demux loop and the grant flusher, respectively).
type MuxConn struct {
	conn    net.Conn
	pool    *PayloadPool
	streams int
	window  int64

	// wmu serializes writes on conn. Holders never wait on credit: every
	// reservation happens before the lock, so the lock is only ever held
	// for the duration of one conn.Write.
	wmu sync.Mutex

	// cmu guards the send-side credit balances.
	cmu    sync.Mutex
	cond   *sync.Cond
	avail  []int64
	closed bool

	// gmu guards the receive-side pending grants.
	gmu      sync.Mutex
	grant    []int64
	gdirty   []uint32
	gscratch []byte // grant frame staging; FlushGrants is single-caller
	gnotify  chan struct{}

	done chan struct{} // closed by Close; stops the AutoGrant granter

	// batchMu guards the MuxBatch freelist.
	batchMu   sync.Mutex
	batchFree []*MuxBatch

	// Demux state: Read has a single caller, like FrameReader.
	rhdr   [MuxHeaderSize]byte
	rframe Frame
}

// NewMuxConn wraps conn. The peer must be a MuxConn with the same stream
// count and window (the wire carries no negotiation).
func NewMuxConn(conn net.Conn, o MuxOptions) *MuxConn {
	if o.Streams <= 0 {
		panic("transport: MuxConn needs at least one stream")
	}
	if o.Window <= 0 {
		o.Window = DefaultStreamWindow
	}
	m := &MuxConn{
		conn:    conn,
		pool:    o.Pool,
		streams: o.Streams,
		window:  int64(o.Window),
		avail:   make([]int64, o.Streams),
		grant:   make([]int64, o.Streams),
		gdirty:  make([]uint32, 0, o.Streams),
		gnotify: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.cmu)
	for s := range m.avail {
		m.avail[s] = m.window
	}
	if o.AutoGrant {
		go m.granter()
	}
	return m
}

// Close wakes every sender blocked on credit and closes the underlying
// connection. Idempotent.
func (m *MuxConn) Close() error {
	m.cmu.Lock()
	if m.closed {
		m.cmu.Unlock()
		return nil
	}
	m.closed = true
	m.cond.Broadcast()
	m.cmu.Unlock()
	close(m.done)
	return m.conn.Close()
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

// MuxBatch stages any number of frames for one stream, shipped with a
// single credit reservation and a single Write by SendBatch. Obtained from
// NewBatch; the scratch is pooled and returns to the conn's freelist when
// the batch is sent (or discarded with PutBatch).
type MuxBatch struct {
	stream uint32
	buf    []byte
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
	return &MuxBatch{stream: stream}
}

// PutBatch discards an unsent batch back to the freelist.
func (m *MuxConn) PutBatch(b *MuxBatch) {
	m.batchMu.Lock()
	m.batchFree = append(m.batchFree, b)
	m.batchMu.Unlock()
}

// Len returns the staged wire size in bytes.
func (b *MuxBatch) Len() int { return len(b.buf) }

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
	n := 8 * len(xs)
	if n > MaxPayload {
		return fmt.Errorf("transport: payload %d exceeds max %d", n, MaxPayload)
	}
	b.buf = appendMuxHeader(b.buf, b.stream, t, iter, tensor, n)
	off := len(b.buf)
	b.buf = append(b.buf, make([]byte, n)...)
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b.buf[off+8*i:], math.Float64bits(x))
	}
	return nil
}

// reserve blocks until the stream has n bytes of credit (or the window is
// completely idle, which admits oversized batches), then debits it.
func (m *MuxConn) reserve(stream uint32, n int64) error {
	m.cmu.Lock()
	defer m.cmu.Unlock()
	for !m.closed && m.avail[stream] < n && m.avail[stream] < m.window {
		m.cond.Wait()
	}
	if m.closed {
		return net.ErrClosed
	}
	m.avail[stream] -= n
	return nil
}

// credit returns granted bytes to a stream's send window.
func (m *MuxConn) credit(stream uint32, n int64) {
	m.cmu.Lock()
	m.avail[stream] += n
	m.cond.Broadcast()
	m.cmu.Unlock()
}

// SendBatch reserves the batch's credit, writes it as one Write, and hands
// the scratch back to the freelist (even on error). The caller must not
// use b afterwards.
func (m *MuxConn) SendBatch(b *MuxBatch) error {
	defer m.PutBatch(b)
	if len(b.buf) == 0 {
		return nil
	}
	if err := m.reserve(b.stream, int64(len(b.buf))); err != nil {
		return err
	}
	m.wmu.Lock()
	_, err := m.conn.Write(b.buf)
	m.wmu.Unlock()
	return err
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

// Read deserializes the next data frame, transparently consuming Credit
// frames into the send-side windows. The returned Frame is reused by the
// next Read; its pooled payload is owned by the caller until Done hands it
// back. Single caller only (the demux loop).
func (m *MuxConn) Read() (uint32, *Frame, error) {
	for {
		if _, err := io.ReadFull(m.conn, m.rhdr[:]); err != nil {
			return 0, nil, err
		}
		stream := binary.LittleEndian.Uint32(m.rhdr[0:4])
		t := MsgType(m.rhdr[4])
		iter := binary.LittleEndian.Uint32(m.rhdr[5:9])
		tensor := binary.LittleEndian.Uint32(m.rhdr[9:13])
		n := binary.LittleEndian.Uint32(m.rhdr[13:17])
		if int64(stream) >= int64(m.streams) {
			return 0, nil, fmt.Errorf("transport: mux frame for stream %d of %d", stream, m.streams)
		}
		if t == Credit {
			if n != 0 {
				return 0, nil, fmt.Errorf("transport: credit frame with %d payload bytes", n)
			}
			m.credit(stream, int64(iter))
			continue
		}
		if n > MaxPayload {
			return 0, nil, fmt.Errorf("transport: frame payload %d exceeds max %d", n, MaxPayload)
		}
		m.rframe.Type = t
		m.rframe.Iter = iter
		m.rframe.Tensor = tensor
		m.rframe.Payload = nil
		if n > 0 {
			var buf []byte
			if m.pool != nil {
				buf = m.pool.Get(int(n))
			} else {
				buf = make([]byte, n)
			}
			if _, err := io.ReadFull(m.conn, buf); err != nil {
				if m.pool != nil {
					m.pool.Put(buf)
				}
				return 0, nil, err
			}
			m.rframe.Payload = buf
		}
		return stream, &m.rframe, nil
	}
}

// Demux is the demux loop every owner of a MuxConn runs: read a data frame,
// hand it to handle (which must not write on this conn and must not keep the
// payload), Done it, repeat. On the first read or handler error it closes
// the mux — a sender parked in a credit reservation or inside conn.Write
// only wakes on a grant or a close, and no grant will arrive once the reader
// is gone — and returns that error. It never returns nil. Like Read, single
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

// Done ends a received frame's lifetime: the pooled payload is recycled
// and the frame's wire bytes are queued as a credit grant for its stream
// (flushed by the granter goroutine or the next FlushGrants call). Every
// frame returned by Read must be Done'd exactly once, payload or not —
// the header bytes carry credit too.
func (m *MuxConn) Done(stream uint32, f *Frame) {
	n := int64(MuxHeaderSize)
	if f != nil && f.Payload != nil {
		n += int64(len(f.Payload))
		if m.pool != nil {
			m.pool.Put(f.Payload)
		}
		f.Payload = nil
	}
	m.gmu.Lock()
	if m.grant[stream] == 0 {
		m.gdirty = append(m.gdirty, stream)
	}
	m.grant[stream] += n
	m.gmu.Unlock()
	select {
	case m.gnotify <- struct{}{}:
	default:
	}
}

// GrantC signals that pending grants are waiting for FlushGrants. Owner
// goroutines that flush grants themselves (instead of AutoGrant) select on
// it alongside their own work queue.
func (m *MuxConn) GrantC() <-chan struct{} { return m.gnotify }

// FlushGrants writes every pending credit grant, coalesced to one frame
// per stream (chunked only past the uint32 grant field), as a single
// Write. Single caller only. A no-op when nothing is pending.
func (m *MuxConn) FlushGrants() error {
	m.gmu.Lock()
	if len(m.gdirty) == 0 {
		m.gmu.Unlock()
		return nil
	}
	buf := m.gscratch[:0]
	for _, s := range m.gdirty {
		amt := m.grant[s]
		m.grant[s] = 0
		for amt > 0 {
			chunk := amt
			if chunk > math.MaxUint32 {
				chunk = math.MaxUint32
			}
			buf = appendMuxHeader(buf, s, Credit, uint32(chunk), 0, 0)
			amt -= chunk
		}
	}
	m.gdirty = m.gdirty[:0]
	m.gscratch = buf
	m.gmu.Unlock()
	m.wmu.Lock()
	_, err := m.conn.Write(buf)
	m.wmu.Unlock()
	return err
}

// granter is the AutoGrant flusher: it owns FlushGrants for this conn.
func (m *MuxConn) granter() {
	for {
		select {
		case <-m.done:
			return
		case <-m.gnotify:
			if m.FlushGrants() != nil {
				return // conn broken; the demux loop surfaces the error
			}
		}
	}
}
