// Package fault provides deterministic, seedable fault injectors for the
// live parameter-server path. Each injector wraps a net.Conn and perturbs
// its *write* stream at exact byte offsets — a connection drop after N
// bytes, a stall of duration D when the stream crosses byte N, a one-byte
// corruption at offset N, or a slow-link throttle (straggler) — so chaos
// tests can replay the same fault schedule run after run.
//
// Faults act on the write path of the wrapped endpoint: wrapping a worker's
// client connection perturbs the bytes the *worker* sends (its pushes and
// pull requests). A drop additionally closes the underlying connection, so
// both directions die, exactly like a reset link.
package fault

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"prophet/internal/transport"
)

// ErrInjectedDrop is returned by writes on a connection whose injected drop
// point has been reached.
var ErrInjectedDrop = errors.New("fault: injected connection drop")

// Spec describes one connection's fault schedule. The zero value injects
// nothing. Offsets are zero-based positions in the endpoint's write stream.
type Spec struct {
	// DropAfterBytes, when > 0, drops the connection once that many bytes
	// have been written: the write that crosses the threshold delivers only
	// the bytes below it, the underlying conn is closed, and every later
	// write fails with ErrInjectedDrop.
	DropAfterBytes int64
	// StallAtByte, when > 0, stalls the write that crosses that offset for
	// StallFor before delivering it (a transient hiccup / straggler burst).
	StallAtByte int64
	StallFor    time.Duration
	// CorruptAtByte, when > 0, XOR-flips the byte at that stream offset
	// (frame corruption: a flipped length prefix or payload byte).
	CorruptAtByte int64
	// ThrottleBytesPerSec, when > 0, shapes all writes to that rate — the
	// persistent slow link of a straggling worker.
	ThrottleBytesPerSec float64
}

// Active reports whether the spec injects anything.
func (s Spec) Active() bool {
	return s.DropAfterBytes > 0 || (s.StallAtByte > 0 && s.StallFor > 0) ||
		s.CorruptAtByte > 0 || s.ThrottleBytesPerSec > 0
}

// String summarizes the schedule for logs and experiment renders.
func (s Spec) String() string {
	switch {
	case !s.Active():
		return "none"
	case s.DropAfterBytes > 0:
		return fmt.Sprintf("drop@%dB", s.DropAfterBytes)
	case s.StallAtByte > 0:
		return fmt.Sprintf("stall@%dB/%v", s.StallAtByte, s.StallFor)
	case s.CorruptAtByte > 0:
		return fmt.Sprintf("corrupt@%dB", s.CorruptAtByte)
	default:
		return fmt.Sprintf("throttle@%.0fB/s", s.ThrottleBytesPerSec)
	}
}

// Wrap returns c with the spec's faults injected on its write path, or c
// itself when the spec is inactive.
func (s Spec) Wrap(c net.Conn) net.Conn { return s.WrapObserved(c, nil) }

// WrapObserved is Wrap with a notification hook: onFault is called once per
// injector firing with the injector family name ("drop", "stall",
// "corrupt"). The persistent throttle shapes every write and never "fires",
// so it reports nothing. The hook runs outside the conn's lock but on the
// writing goroutine — keep it cheap and non-blocking.
func (s Spec) WrapObserved(c net.Conn, onFault func(kind string)) net.Conn {
	if !s.Active() {
		return c
	}
	fc := &conn{Conn: c, spec: s, sleep: time.Sleep, onFault: onFault, closed: make(chan struct{})}
	if s.ThrottleBytesPerSec > 0 {
		fc.limiter = transport.NewLimiter(s.ThrottleBytesPerSec, 4<<10)
	}
	return fc
}

// Convenience constructors for single-fault specs.

// DropAt drops the connection after n written bytes.
func DropAt(n int64) Spec { return Spec{DropAfterBytes: n} }

// StallAt stalls for d the write crossing byte n.
func StallAt(n int64, d time.Duration) Spec { return Spec{StallAtByte: n, StallFor: d} }

// CorruptAt flips the byte at stream offset n.
func CorruptAt(n int64) Spec { return Spec{CorruptAtByte: n} }

// Throttle shapes writes to bytesPerSec (a straggler link).
func Throttle(bytesPerSec float64) Spec { return Spec{ThrottleBytesPerSec: bytesPerSec} }

// Derive builds a deterministic spec of the given kind from a seed: offsets
// land uniformly in [lo, hi), so a chaos test sweeping seeds explores the
// fault space reproducibly.
func Derive(seed uint64, kind Kind, lo, hi int64) Spec {
	if hi <= lo {
		hi = lo + 1
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	off := lo + rng.Int64N(hi-lo)
	if off < 1 {
		off = 1
	}
	switch kind {
	case Drop:
		return DropAt(off)
	case Stall:
		return StallAt(off, time.Duration(50+rng.Int64N(100))*time.Millisecond)
	case Corrupt:
		return CorruptAt(off)
	case Straggler:
		// 8–64 KB/s: slow enough to trip any straggler detector.
		return Throttle(float64(8<<10) * float64(1+rng.Int64N(8)))
	default:
		return Spec{}
	}
}

// Kind enumerates the injector families.
type Kind int

// The injector families Derive can build.
const (
	Drop Kind = iota
	Stall
	Corrupt
	Straggler
)

func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Stall:
		return "stall"
	case Corrupt:
		return "corrupt"
	case Straggler:
		return "straggler"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// conn implements the injectors over an underlying net.Conn.
type conn struct {
	net.Conn
	spec    Spec
	limiter *transport.Limiter
	sleep   func(time.Duration)
	onFault func(kind string)
	// closed is closed by Close, ending a throttled write still waiting
	// for its tokens.
	closed    chan struct{}
	closeOnce sync.Once

	mu      sync.Mutex
	written int64
	stalled bool
	dropped bool
}

// Write applies the fault schedule, then forwards to the underlying conn.
func (c *conn) Write(b []byte) (int, error) {
	if c.limiter != nil && !c.limiter.Wait(len(b), c.closed) {
		return 0, fmt.Errorf("fault: throttled write: %w", net.ErrClosed)
	}
	c.mu.Lock()
	if c.dropped {
		c.mu.Unlock()
		return 0, ErrInjectedDrop
	}
	start := c.written
	end := start + int64(len(b))

	// Stall: pause the write that crosses the offset, once.
	if s := c.spec; s.StallAtByte > 0 && s.StallFor > 0 && !c.stalled &&
		start <= s.StallAtByte && s.StallAtByte < end {
		c.stalled = true
		sleep := c.sleep
		c.mu.Unlock()
		c.fire("stall")
		sleep(s.StallFor)
		c.mu.Lock()
		if c.dropped {
			c.mu.Unlock()
			return 0, ErrInjectedDrop
		}
	}

	// Corrupt: flip the byte at the configured stream offset.
	corrupted := false
	if at := c.spec.CorruptAtByte; at > 0 && start <= at && at < end {
		cp := make([]byte, len(b))
		copy(cp, b)
		cp[at-start] ^= 0xFF
		b = cp
		corrupted = true
	}

	// Drop: deliver bytes below the threshold, then kill the connection.
	if lim := c.spec.DropAfterBytes; lim > 0 && end > lim {
		keep := lim - start
		if keep < 0 {
			keep = 0
		}
		c.dropped = true
		c.mu.Unlock()
		if corrupted {
			c.fire("corrupt")
		}
		c.fire("drop")
		n := 0
		if keep > 0 {
			n, _ = c.Conn.Write(b[:keep])
		}
		c.Conn.Close()
		return n, ErrInjectedDrop
	}

	c.written = end
	c.mu.Unlock()
	if corrupted {
		c.fire("corrupt")
	}
	n, err := c.Conn.Write(b)
	if n != len(b) {
		// Keep the offset ledger honest on short writes.
		c.mu.Lock()
		c.written -= int64(len(b) - n)
		c.mu.Unlock()
	}
	return n, err
}

// Close closes the underlying conn and ends a throttled write in progress.
func (c *conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// fire notifies the observer hook of an injector firing.
func (c *conn) fire(kind string) {
	if c.onFault != nil {
		c.onFault(kind)
	}
}
