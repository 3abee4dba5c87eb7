package transport

// The in-memory wire under every live engine: a full-duplex byte pipe with
// a bounded buffer per direction. A Write copies into its direction's buffer
// and returns; it parks only while that buffer is full, so a sender waits
// for its reader only when MaxCombinedWrite bytes already sit unread — the
// way a send over a kernel socket returns once the kernel holds the bytes.
// A Read takes whatever is buffered, up to len(p), across as many writes as
// it holds. Close keeps net.Pipe's error values: io.ErrClosedPipe for the
// closing end and for any writer once either end has closed, io.EOF for a
// reader whose far end closed once it has drained what was written before
// the close.

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// pipeHalf is one direction of a pipe: what one end writes, buffered until
// the other end reads it. buf is a ring of MuxReadBuffer bytes from the
// first write, and of MaxCombinedWrite bytes once a write finds too little
// room in that — a pipe whose reader keeps up stays small.
type pipeHalf struct {
	wmu sync.Mutex // held for a whole Write: concurrent writes never interleave

	mu       sync.Mutex
	readable sync.Cond // L = &mu: bytes buffered, or an end closed
	writable sync.Cond // L = &mu: room in buf, or an end closed
	buf      []byte
	head     int  // offset of the oldest unread byte
	n        int  // bytes buffered
	rclosed  bool // the reading end closed: the buffer is dropped
	wclosed  bool // the writing end closed: the reader gets EOF once drained
}

func newPipeHalf() *pipeHalf {
	h := &pipeHalf{}
	h.readable.L = &h.mu
	h.writable.L = &h.mu
	return h
}

// write copies b into the buffer, parking while it is full, and reports how
// many bytes it took: all of b, or those taken before an end closed.
func (h *pipeHalf) write(b []byte) (int, error) {
	h.wmu.Lock()
	defer h.wmu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	done := 0
	for {
		if h.rclosed || h.wclosed {
			return done, io.ErrClosedPipe
		}
		if done == len(b) {
			return done, nil
		}
		if rest := len(b) - done; len(h.buf)-h.n < rest && len(h.buf) < MaxCombinedWrite {
			h.grow(h.n + rest)
		}
		if h.n == len(h.buf) {
			h.writable.Wait()
			continue
		}
		tail := (h.head + h.n) % len(h.buf)
		k := copy(h.buf[tail:min(len(h.buf), tail+len(h.buf)-h.n)], b[done:])
		if k < len(b)-done && h.n+k < len(h.buf) { // wrapped: fill the front
			k += copy(h.buf[:h.head], b[done+k:])
		}
		done += k
		h.n += k
		h.readable.Signal()
	}
}

// pipeBufs recycles full-size rings across pipes: a run builds its pipes
// anew, and each direction that fills MuxReadBuffer takes one of these.
var pipeBufs = sync.Pool{New: func() any { return new([MaxCombinedWrite]byte) }}

// grow re-lays the buffered bytes at the front of a bigger ring:
// MuxReadBuffer bytes at first, a MaxCombinedWrite one from pipeBufs once
// want is more than that.
func (h *pipeHalf) grow(want int) {
	var buf []byte
	if want <= MuxReadBuffer {
		buf = make([]byte, MuxReadBuffer)
	} else {
		buf = pipeBufs.Get().(*[MaxCombinedWrite]byte)[:]
	}
	k := copy(buf, h.buf[h.head:min(len(h.buf), h.head+h.n)])
	copy(buf[k:h.n], h.buf)
	h.buf, h.head = buf, 0
}

// read copies out up to len(p) buffered bytes, parking while none are.
func (h *pipeHalf) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		switch {
		case h.rclosed:
			return 0, io.ErrClosedPipe
		case len(p) == 0:
			return 0, nil
		case h.n > 0:
			k := copy(p, h.buf[h.head:min(len(h.buf), h.head+h.n)])
			if k < len(p) && k < h.n { // wrapped: take the front too
				k += copy(p[k:], h.buf[:h.n-k])
			}
			h.head = (h.head + k) % len(h.buf)
			if h.n -= k; h.n == 0 {
				h.head = 0 // the next write starts at the front, unwrapped
			}
			h.writable.Signal()
			if h.n > 0 {
				h.readable.Signal() // another reader may be parked
			}
			return k, nil
		case h.wclosed:
			return 0, io.EOF
		}
		h.readable.Wait()
	}
}

// shut marks one end of this direction closed and wakes everyone parked on
// it. A closed reading end drops the buffer: nobody reads it again.
func (h *pipeHalf) shut(reader bool) {
	h.mu.Lock()
	if reader {
		h.rclosed = true
		if len(h.buf) == MaxCombinedWrite {
			pipeBufs.Put((*[MaxCombinedWrite]byte)(h.buf))
		}
		h.buf, h.head, h.n = nil, 0, 0
	} else {
		h.wclosed = true
	}
	h.readable.Broadcast()
	h.writable.Broadcast()
	h.mu.Unlock()
}

// pipeEnd is one end of a pipe: it reads rx and writes tx, which the other
// end reads.
type pipeEnd struct {
	rx, tx *pipeHalf
	once   sync.Once
}

// newPipe returns the two ends of an unshaped buffered pipe.
func newPipe() (a, b *pipeEnd) {
	ab, ba := newPipeHalf(), newPipeHalf()
	return &pipeEnd{rx: ba, tx: ab}, &pipeEnd{rx: ab, tx: ba}
}

func (e *pipeEnd) Read(p []byte) (int, error)  { return e.rx.read(p) }
func (e *pipeEnd) Write(b []byte) (int, error) { return e.tx.write(b) }

// Close closes this end: its own reads and writes, and the far end's
// writes, fail with io.ErrClosedPipe; the far end reads what this end wrote
// before the close, then io.EOF. Idempotent.
func (e *pipeEnd) Close() error {
	e.once.Do(func() {
		e.rx.shut(true)
		e.tx.shut(false)
	})
	return nil
}

// errNoDeadline: nothing on the live wire sets a deadline; a run is bounded
// by closing its pipes instead.
var errNoDeadline = errors.New("transport: pipe deadlines are not supported")

func (e *pipeEnd) LocalAddr() net.Addr              { return pipeAddr{} }
func (e *pipeEnd) RemoteAddr() net.Addr             { return pipeAddr{} }
func (e *pipeEnd) SetDeadline(time.Time) error      { return errNoDeadline }
func (e *pipeEnd) SetReadDeadline(time.Time) error  { return errNoDeadline }
func (e *pipeEnd) SetWriteDeadline(time.Time) error { return errNoDeadline }

// pipeAddr is both ends' address, as net.Pipe's is.
type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
