package fault

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// drain reads everything from c until it closes and reports the bytes.
func drain(c net.Conn) <-chan []byte {
	out := make(chan []byte, 1)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, c)
		out <- buf.Bytes()
	}()
	return out
}

func TestDropAtDeliversPrefixThenKills(t *testing.T) {
	a, b := net.Pipe()
	fc := DropAt(10).Wrap(a)
	got := drain(b)

	if n, err := fc.Write(make([]byte, 8)); err != nil || n != 8 {
		t.Fatalf("write below threshold: n=%d err=%v", n, err)
	}
	// This write crosses byte 10: exactly 2 more bytes arrive, then the
	// connection dies.
	if _, err := fc.Write(make([]byte, 8)); !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("crossing write err = %v, want ErrInjectedDrop", err)
	}
	if _, err := fc.Write([]byte{1}); !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("post-drop write err = %v, want ErrInjectedDrop", err)
	}
	if data := <-got; len(data) != 10 {
		t.Fatalf("peer received %d bytes, want exactly 10", len(data))
	}
}

func TestStallAtDelaysOnce(t *testing.T) {
	a, b := net.Pipe()
	const stall = 50 * time.Millisecond
	fc := StallAt(5, stall).Wrap(a)
	go drain(b)

	start := time.Now()
	if _, err := fc.Write(make([]byte, 8)); err != nil { // crosses byte 5
		t.Fatal(err)
	}
	if d := time.Since(start); d < stall {
		t.Fatalf("crossing write took %v, want >= %v", d, stall)
	}
	start = time.Now()
	if _, err := fc.Write(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= stall {
		t.Fatalf("stall fired twice: second write took %v", d)
	}
	fc.Close()
}

func TestCorruptAtFlipsExactlyOneByte(t *testing.T) {
	a, b := net.Pipe()
	fc := CorruptAt(8).Wrap(a)
	got := drain(b)

	src := make([]byte, 16)
	for i := range src {
		src[i] = byte(i)
	}
	sent := append([]byte(nil), src...)
	if _, err := fc.Write(src); err != nil {
		t.Fatal(err)
	}
	fc.Close()
	data := <-got
	if len(data) != 16 {
		t.Fatalf("received %d bytes", len(data))
	}
	for i, v := range data {
		want := sent[i]
		if i == 8 {
			want ^= 0xFF
		}
		if v != want {
			t.Fatalf("byte %d = %#x, want %#x", i, v, want)
		}
	}
	// The caller's buffer must not be mutated.
	if !bytes.Equal(src, sent) {
		t.Fatal("injector corrupted the caller's buffer in place")
	}
}

func TestThrottleShapesWrites(t *testing.T) {
	a, b := net.Pipe()
	fc := Throttle(64 << 10).Wrap(a) // 64 KB/s, 4 KB burst
	go drain(b)

	start := time.Now()
	if _, err := fc.Write(make([]byte, 12<<10)); err != nil {
		t.Fatal(err)
	}
	// 12 KB against a 4 KB burst leaves >= 8 KB paced at 64 KB/s = 125ms.
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("12 KB write took %v, want >= 100ms of shaping", d)
	}
	fc.Close()
}

// TestCloseEndsThrottledWrite: a write waiting out its throttle returns as
// soon as the conn is closed, with an error wrapping net.ErrClosed, instead
// of sleeping until its tokens arrive.
func TestCloseEndsThrottledWrite(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	fc := Throttle(1 << 10).Wrap(a) // 1 KB/s: 64 KB would take a minute
	go drain(b)

	done := make(chan error, 1)
	go func() {
		_, err := fc.Write(make([]byte, 64<<10))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	fc.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("write returned %v, want an error wrapping net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("closing the conn did not end the throttled write")
	}
}

func TestInactiveSpecIsPassthrough(t *testing.T) {
	a, _ := net.Pipe()
	defer a.Close()
	if got := (Spec{}).Wrap(a); got != a {
		t.Fatal("inactive spec wrapped the conn")
	}
	if (Spec{}).Active() {
		t.Fatal("zero spec active")
	}
	if s := (Spec{}).String(); s != "none" {
		t.Fatalf("String() = %q", s)
	}
}

func TestDeriveIsDeterministicAndBounded(t *testing.T) {
	for _, kind := range []Kind{Drop, Stall, Corrupt, Straggler} {
		s1 := Derive(42, kind, 100, 500)
		s2 := Derive(42, kind, 100, 500)
		if s1 != s2 {
			t.Fatalf("%v: same seed gave %+v and %+v", kind, s1, s2)
		}
		if !s1.Active() {
			t.Fatalf("%v: derived spec inactive: %+v", kind, s1)
		}
		switch kind {
		case Drop:
			if s1.DropAfterBytes < 100 || s1.DropAfterBytes >= 500 {
				t.Fatalf("drop offset %d outside [100,500)", s1.DropAfterBytes)
			}
		case Stall:
			if s1.StallAtByte < 100 || s1.StallAtByte >= 500 || s1.StallFor <= 0 {
				t.Fatalf("stall spec %+v outside bounds", s1)
			}
		case Corrupt:
			if s1.CorruptAtByte < 100 || s1.CorruptAtByte >= 500 {
				t.Fatalf("corrupt offset %d outside [100,500)", s1.CorruptAtByte)
			}
		case Straggler:
			if s1.ThrottleBytesPerSec <= 0 {
				t.Fatalf("straggler spec %+v has no rate", s1)
			}
		}
	}
	if Derive(1, Drop, 100, 500) == Derive(2, Drop, 100, 500) {
		t.Fatal("different seeds produced identical drop specs")
	}
}
