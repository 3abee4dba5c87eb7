// Package transport provides the byte-level machinery for the real
// parameter-server emulation: a binary frame format for push/pull traffic,
// float64 payload codecs, and a token-bucket rate limiter that shapes a
// connection to a configured bandwidth — standing in for the EC2 links of
// the paper's testbed while exercising real reads, writes, and goroutines.
package transport

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// MsgType labels a frame.
type MsgType uint8

// Frame types: a gradient push, a parameter pull request, its response, and
// one chunk step of a peer-to-peer collective exchange (internal/collective).
// Value 4 was the mux's flow-control credit grant; it stays reserved (see
// mux.go) so Chunk keeps its wire value.
const (
	Push MsgType = iota + 1
	PullReq
	PullResp
	_
	Chunk
)

func (t MsgType) String() string {
	switch t {
	case Push:
		return "push"
	case PullReq:
		return "pull-req"
	case PullResp:
		return "pull-resp"
	case Chunk:
		return "chunk"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Frame is one message between a worker and the parameter server. On the
// wire every frame travels tagged with a stream id (mux.go); the untagged
// form is the FrameWriter/FrameReader codec of frame.go.
type Frame struct {
	Type MsgType
	// Iter is the training iteration the tensor belongs to.
	Iter uint32
	// Tensor is the parameter tensor index (priority).
	Tensor uint32
	// Payload carries float64 data for Push and PullResp frames.
	Payload []byte
}

// header: type(1) + iter(4) + tensor(4) + payload length(4).
const headerSize = 13

// MaxPayload bounds a frame's payload to keep a corrupted length prefix
// from allocating unbounded memory.
const MaxPayload = 1 << 28

// Limiter is a token-bucket byte rate limiter safe for concurrent use.
type Limiter struct {
	mu     sync.Mutex
	rate   float64 // bytes per second
	burst  float64 // bucket capacity in bytes
	tokens float64
	last   time.Time
	// sleep is replaceable for tests.
	sleep func(time.Duration)
}

// NewLimiter creates a limiter at `bytesPerSec` with the given burst
// capacity (bytes sent back-to-back before shaping kicks in). The burst
// must be at least one byte: Wait admits oversized requests in burst-sized
// installments, so a sub-byte burst could never make progress.
func NewLimiter(bytesPerSec, burst float64) *Limiter {
	if bytesPerSec <= 0 || burst < 1 {
		panic("transport: limiter needs positive rate and a burst of at least 1 byte")
	}
	return &Limiter{
		rate:   bytesPerSec,
		burst:  burst,
		tokens: burst,
		last:   time.Now(),
		sleep:  time.Sleep,
	}
}

// Wait blocks until n bytes may be sent and reports true, or returns false
// as soon as done is closed (a nil done never is). Requests larger than the
// burst are admitted in burst-sized installments.
func (l *Limiter) Wait(n int, done <-chan struct{}) bool {
	for n > 0 {
		chunk := n
		if float64(chunk) > l.burst {
			chunk = int(l.burst)
			if chunk < 1 {
				chunk = 1 // fractional burst: still admit a whole byte
			}
		}
		if !l.waitChunk(chunk, done) {
			return false
		}
		n -= chunk
	}
	return true
}

func (l *Limiter) waitChunk(n int, done <-chan struct{}) bool {
	l.mu.Lock()
	now := time.Now()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
	l.tokens -= float64(n)
	var wait time.Duration
	if l.tokens < 0 {
		wait = time.Duration(-l.tokens / l.rate * float64(time.Second))
	}
	sleep := l.sleep
	l.mu.Unlock()
	switch {
	case wait <= 0:
	case done == nil:
		sleep(wait)
	default:
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-t.C:
		case <-done:
			return false
		}
	}
	return true
}

// Conn shapes writes on an underlying net.Conn to a limiter's rate. Reads
// are unshaped (the peer's writes are shaped on their side).
type Conn struct {
	net.Conn
	limiter *Limiter
}

// NewConn wraps c with the limiter (nil means unshaped).
func NewConn(c net.Conn, l *Limiter) *Conn { return &Conn{Conn: c, limiter: l} }

// Write implements net.Conn with rate shaping.
func (c *Conn) Write(b []byte) (int, error) {
	if c.limiter != nil {
		c.limiter.Wait(len(b), nil)
	}
	return c.Conn.Write(b)
}

// Pipe returns an in-memory full-duplex connection pair with each direction
// shaped to the given rates (0 = unshaped). Each direction buffers up to
// MaxCombinedWrite bytes (pipe.go): a Write returns once its bytes are
// buffered — after the token bucket has admitted them, on a shaped
// direction — and parks only while the buffer is full.
func Pipe(aToB, bToA float64) (a, b net.Conn) {
	pa, pb := newPipe()
	var la, lb *Limiter
	if aToB > 0 {
		la = NewLimiter(aToB, 64<<10)
	}
	if bToA > 0 {
		lb = NewLimiter(bToA, 64<<10)
	}
	return NewConn(pa, la), NewConn(pb, lb)
}
