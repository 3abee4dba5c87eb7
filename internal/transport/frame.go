package transport

// The untagged frame codec: a FrameWriter/FrameReader pair with reusable
// scratch buffers — zero per-frame allocations and one write per flush. The
// live wire (mux.go) frames the same header behind a stream id and shares
// the pools below; the codec itself is the single-stream reference the
// benchmark's frame rows and the mux byte-compatibility test measure
// against.
//
//   - FrameWriter buffers any number of frames in one scratch buffer and
//     emits them with a single Write — one rate-limiter Wait and one
//     syscall (or pipe rendezvous) per flush instead of two per frame.
//     AppendFloats encodes float64 payloads directly into the scratch, so
//     a gradient push never materializes an intermediate payload slice.
//   - FrameReader reads into payload buffers drawn from a PayloadPool.
//     The returned *Frame is reused by the next Read; the payload belongs
//     to the caller until it hands it back with Recycle. A caller that
//     never recycles is still correct — it just pays a pool miss per read.
//
// Batching multiple frames per flush is the Parameter-Box-style wire
// format: all tensors of one scheduler message to one destination travel
// as one buffered write. The byte stream is identical to the same frames
// written one at a time (asserted by test), so batching changes syscall
// and shaping mechanics, never what the peer parses.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
)

// minClassBits is the smallest pooled payload class (64 bytes); buffers
// smaller than this are not worth tracking.
const minClassBits = 6

// maxPerClass bounds how many idle buffers one size class retains, so a
// burst of large frames cannot pin memory forever.
const maxPerClass = 128

// PayloadPool recycles frame payload buffers in power-of-two size classes.
// It is safe for concurrent use: every connection reader and responder of a
// process can share one pool, so a payload freed by one goroutine serves
// the next read on any connection.
type PayloadPool struct {
	mu sync.Mutex
	// classes[c] holds idle buffers with 1<<c <= cap < 1<<(c+1), so any
	// buffer in class c can serve requests up to 1<<c bytes.
	classes [30][][]byte
}

// NewPayloadPool returns an empty pool.
func NewPayloadPool() *PayloadPool { return &PayloadPool{} }

// Get returns a length-n buffer, recycled when the pool has one, freshly
// allocated (a pool miss) when it does not.
func (p *PayloadPool) Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := bits.Len(uint(n - 1))
	if c < minClassBits {
		c = minClassBits
	}
	if c >= len(p.classes) {
		return make([]byte, n)
	}
	p.mu.Lock()
	if l := len(p.classes[c]); l > 0 {
		b := p.classes[c][l-1]
		p.classes[c][l-1] = nil
		p.classes[c] = p.classes[c][:l-1]
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]byte, n, 1<<c)
}

// Put hands a buffer back to the pool. The caller must not use b after.
func (p *PayloadPool) Put(b []byte) {
	if cap(b) < 1<<minClassBits {
		return
	}
	c := bits.Len(uint(cap(b))) - 1 // floor class: cap >= 1<<c by construction
	if c >= len(p.classes) {
		c = len(p.classes) - 1
	}
	p.mu.Lock()
	if len(p.classes[c]) < maxPerClass {
		p.classes[c] = append(p.classes[c], b[:0])
	}
	p.mu.Unlock()
}

// FloatPool recycles decoded []float64 buffers the way PayloadPool recycles
// wire bytes: a mutex-protected freelist in power-of-two size classes, so
// steady-state Get/Put allocate nothing on any goroutine (unlike sync.Pool,
// whose Put boxes the slice header). The zero value is an empty pool, safe
// for concurrent use.
type FloatPool struct {
	mu sync.Mutex
	// classes[c] holds idle slices with 1<<c <= cap < 1<<(c+1).
	classes [30][][]float64
}

// floatMinClassBits: the smallest pooled slice is 16 elements (128 bytes).
const floatMinClassBits = 4

// Get returns a length-n buffer, recycled when the pool has one. An empty
// request still yields a non-nil slice: an empty payload must decode to a
// contribution, not to "nothing pushed".
func (p *FloatPool) Get(n int) []float64 {
	if n <= 0 {
		return []float64{}
	}
	c := bits.Len(uint(n - 1))
	if c < floatMinClassBits {
		c = floatMinClassBits
	}
	if c >= len(p.classes) {
		return make([]float64, n)
	}
	p.mu.Lock()
	if l := len(p.classes[c]); l > 0 {
		b := p.classes[c][l-1]
		p.classes[c][l-1] = nil
		p.classes[c] = p.classes[c][:l-1]
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]float64, n, 1<<c)
}

// Put hands a buffer back to the pool. The caller must not use b after.
func (p *FloatPool) Put(b []float64) {
	if cap(b) < 1<<floatMinClassBits {
		return
	}
	c := bits.Len(uint(cap(b))) - 1
	if c >= len(p.classes) {
		c = len(p.classes) - 1
	}
	p.mu.Lock()
	if len(p.classes[c]) < maxPerClass {
		p.classes[c] = append(p.classes[c], b[:0])
	}
	p.mu.Unlock()
}

// FrameWriter buffers frames in a reusable scratch buffer and writes each
// flush as one Write call. It is not safe for concurrent use.
type FrameWriter struct {
	w   io.Writer
	buf []byte
}

// NewFrameWriter returns a writer emitting to w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

func (fw *FrameWriter) appendHeader(t MsgType, iter, tensor uint32, n int) {
	var hdr [headerSize]byte
	hdr[0] = byte(t)
	binary.LittleEndian.PutUint32(hdr[1:5], iter)
	binary.LittleEndian.PutUint32(hdr[5:9], tensor)
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(n))
	fw.buf = append(fw.buf, hdr[:]...)
}

// AppendFrame stages f for the next Flush. The payload is copied; f may be
// reused immediately.
func (fw *FrameWriter) AppendFrame(f *Frame) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("transport: payload %d exceeds max %d", len(f.Payload), MaxPayload)
	}
	fw.appendHeader(f.Type, f.Iter, f.Tensor, len(f.Payload))
	fw.buf = append(fw.buf, f.Payload...)
	return nil
}

// AppendFloats stages a frame whose payload is xs in little-endian float64
// encoding, written directly into the scratch buffer — no intermediate
// payload allocation.
func (fw *FrameWriter) AppendFloats(t MsgType, iter, tensor uint32, xs []float64) error {
	n := 8 * len(xs)
	if n > MaxPayload {
		return fmt.Errorf("transport: payload %d exceeds max %d", n, MaxPayload)
	}
	fw.appendHeader(t, iter, tensor, n)
	fw.buf = appendFloats(fw.buf, xs)
	return nil
}

// Flush writes everything staged as a single Write and resets the scratch.
// On a rate-shaped Conn the whole batch pays one limiter Wait. A no-op
// when nothing is buffered.
func (fw *FrameWriter) Flush() error {
	if len(fw.buf) == 0 {
		return nil
	}
	_, err := fw.w.Write(fw.buf)
	fw.buf = fw.buf[:0]
	return err
}

// WriteFrame stages f and flushes immediately: header and payload leave in
// one write.
func (fw *FrameWriter) WriteFrame(f *Frame) error {
	if err := fw.AppendFrame(f); err != nil {
		return err
	}
	return fw.Flush()
}

// WriteFloats stages a float-payload frame and flushes immediately.
func (fw *FrameWriter) WriteFloats(t MsgType, iter, tensor uint32, xs []float64) error {
	if err := fw.AppendFloats(t, iter, tensor, xs); err != nil {
		return err
	}
	return fw.Flush()
}

// FrameReader deserializes frames with pooled payload buffers. The Frame
// returned by Read is reused by the next Read; its Payload is drawn from
// the pool and owned by the caller until Recycle hands it back. Not safe
// for concurrent use (each connection has one reader goroutine).
type FrameReader struct {
	r    io.Reader
	pool *PayloadPool
	f    Frame
	// hdr is the header scratch; a field rather than a local so it does
	// not escape (via the io.ReadFull interface call) on every Read.
	hdr [headerSize]byte
}

// NewFrameReader returns a reader over r. A nil pool disables recycling:
// every payload is freshly allocated and Recycle is a no-op.
func NewFrameReader(r io.Reader, pool *PayloadPool) *FrameReader {
	return &FrameReader{r: r, pool: pool}
}

// Read deserializes one frame. The returned Frame is valid until the next
// Read; pass it to Recycle once the payload has been consumed.
func (fr *FrameReader) Read() (*Frame, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, err
	}
	fr.f.Type = MsgType(fr.hdr[0])
	fr.f.Iter = binary.LittleEndian.Uint32(fr.hdr[1:5])
	fr.f.Tensor = binary.LittleEndian.Uint32(fr.hdr[5:9])
	n := binary.LittleEndian.Uint32(fr.hdr[9:13])
	if n > MaxPayload {
		return nil, fmt.Errorf("transport: frame payload %d exceeds max %d", n, MaxPayload)
	}
	fr.f.Payload = nil
	if n > 0 {
		var buf []byte
		if fr.pool != nil {
			buf = fr.pool.Get(int(n))
		} else {
			buf = make([]byte, n)
		}
		if _, err := io.ReadFull(fr.r, buf); err != nil {
			if fr.pool != nil {
				fr.pool.Put(buf)
			}
			return nil, err
		}
		fr.f.Payload = buf
	}
	return &fr.f, nil
}

// Recycle returns f's payload buffer to the reader's pool and clears it.
// Safe to call with a payload-less frame.
func (fr *FrameReader) Recycle(f *Frame) {
	if f == nil || f.Payload == nil {
		return
	}
	if fr.pool != nil {
		fr.pool.Put(f.Payload)
	}
	f.Payload = nil
}

// FloatCount validates b as a float64 payload and returns its element
// count.
func FloatCount(b []byte) (int, error) {
	if len(b)%8 != 0 {
		return 0, fmt.Errorf("transport: float payload length %d not a multiple of 8", len(b))
	}
	return len(b) / 8, nil
}

// appendFloats appends xs to dst in little-endian float64 encoding.
func appendFloats(dst []byte, xs []float64) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, 8*len(xs))...)
	for i, x := range xs {
		binary.LittleEndian.PutUint64(dst[off+8*i:], math.Float64bits(x))
	}
	return dst
}

// DecodeFloatsInto unpacks little-endian float64 bytes into dst, which
// must hold exactly len(b)/8 elements — the caller sizes it via FloatCount
// (typically from a recycled-buffer pool).
func DecodeFloatsInto(dst []float64, b []byte) error {
	if len(b) != 8*len(dst) {
		return fmt.Errorf("transport: float payload length %d does not fit %d elements", len(b), len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}
