package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestPipeCloseMatchesNetPipe: the buffered pipe reports net.Pipe's error
// values for every close a live engine can see — its own end's or the far
// end's, before a call or under one that is parked.
func TestPipeCloseMatchesNetPipe(t *testing.T) {
	big := make([]byte, MaxCombinedWrite+1) // parks on either pipe
	// parkedThen starts op on a goroutine, gives it time to park, runs
	// closeFn and returns op's error.
	parkedThen := func(op func() error, closeFn func()) error {
		res := make(chan error, 1)
		go func() { res <- op() }()
		time.Sleep(20 * time.Millisecond)
		closeFn()
		select {
		case err := <-res:
			return err
		case <-time.After(5 * time.Second):
			return errors.New("still parked after the close")
		}
	}
	write := func(c net.Conn, b []byte) func() error {
		return func() error { _, err := c.Write(b); return err }
	}
	read := func(c net.Conn) func() error {
		return func() error { _, err := c.Read(make([]byte, 8)); return err }
	}
	for _, tc := range []struct {
		name string
		run  func(a, b net.Conn) error
		want error
	}{
		{"write after own close", func(a, b net.Conn) error { a.Close(); return write(a, []byte{1})() }, io.ErrClosedPipe},
		{"read after own close", func(a, b net.Conn) error { a.Close(); return read(a)() }, io.ErrClosedPipe},
		{"write after far close", func(a, b net.Conn) error { b.Close(); return write(a, []byte{1})() }, io.ErrClosedPipe},
		{"read after far close", func(a, b net.Conn) error { b.Close(); return read(a)() }, io.EOF},
		{"second close", func(a, b net.Conn) error { a.Close(); return a.Close() }, nil},
		{"parked write, own close", func(a, b net.Conn) error { return parkedThen(write(a, big), func() { a.Close() }) }, io.ErrClosedPipe},
		{"parked write, far close", func(a, b net.Conn) error { return parkedThen(write(a, big), func() { b.Close() }) }, io.ErrClosedPipe},
		{"parked read, own close", func(a, b net.Conn) error { return parkedThen(read(a), func() { a.Close() }) }, io.ErrClosedPipe},
		{"parked read, far close", func(a, b net.Conn) error { return parkedThen(read(a), func() { b.Close() }) }, io.EOF},
	} {
		for _, p := range []struct {
			name string
			pipe func() (net.Conn, net.Conn)
		}{
			{"net.Pipe", net.Pipe},
			{"Pipe", func() (net.Conn, net.Conn) { return Pipe(0, 0) }},
		} {
			a, b := p.pipe()
			if err := tc.run(a, b); err != tc.want {
				t.Errorf("%s on %s: %v, want %v", tc.name, p.name, err, tc.want)
			}
			a.Close()
			b.Close()
		}
	}
}

// TestPipeDrainsBeforeEOF: bytes written before a close are still read
// after it — one Read may span several writes — and only then is the far
// end's close an io.EOF.
func TestPipeDrainsBeforeEOF(t *testing.T) {
	a, b := Pipe(0, 0)
	defer b.Close()
	for _, w := range []string{"ab", "cde", "f"} {
		if _, err := a.Write([]byte(w)); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	buf := make([]byte, 4)
	for _, want := range []string{"abcd", "ef"} {
		n, err := b.Read(buf)
		if err != nil || string(buf[:n]) != want {
			t.Fatalf("read %q, %v; want %q", buf[:n], err, want)
		}
	}
	if n, err := b.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("drained read: %d, %v; want 0, EOF", n, err)
	}
}

// TestPipeSteadyStateAllocs: once a direction's buffer has grown, a Write
// and the Read that drains it allocate nothing.
func TestPipeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	a, b := Pipe(0, 0)
	defer a.Close()
	defer b.Close()
	msg, buf := make([]byte, MuxReadBuffer), make([]byte, MuxReadBuffer)
	round := func() {
		if _, err := a.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(b, buf); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("warm Write+Read allocates %.1f objects, want 0", allocs)
	}
}

// streamByte is byte i of the stream FuzzPipe writes.
func streamByte(i int) byte { return byte(i ^ i>>8 ^ i>>16) }

func streamBytes(off, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = streamByte(off + i)
	}
	return b
}

// FuzzPipe drives one direction of a pipe — writes on a, reads on b, and
// either end's close — from random sizes, against a model of the bytes it
// holds. Every read returns min(len(p), buffered) bytes, the next ones of
// the written stream; a write parks only while the buffer is full — it
// returns at once when its bytes fit, and otherwise stays parked exactly
// while MaxCombinedWrite bytes sit unread; on a close a write reports the
// bytes it had buffered, no more and no fewer; and a reader drains what was
// written before its far end closed, then reads io.EOF.
func FuzzPipe(f *testing.F) {
	op := func(kind byte, size uint16) []byte {
		return binary.LittleEndian.AppendUint16([]byte{kind}, size)
	}
	f.Add(bytes.Join([][]byte{op(0, 100), op(2, 40), op(2, 100), op(3, 0), op(2, 100)}, nil))
	f.Add(bytes.Join([][]byte{op(0, 60000), op(1, 60000), op(2, 5000), op(2, 65535), op(2, 65535), op(2, 65535)}, nil))
	f.Add(bytes.Join([][]byte{op(1, 65535), op(2, 7), op(4, 0), op(0, 3), op(2, 1)}, nil))
	f.Add(bytes.Join([][]byte{op(0, 65535), op(2, 0), op(3, 0), op(2, 65535), op(2, 65535), op(2, 1)}, nil))
	f.Fuzz(func(t *testing.T, ops []byte) {
		a, b := newPipe()
		h := a.tx
		// The model: bytes accepted into the pipe and read out of it, the
		// ends closed, and the write in flight (parked on a full buffer).
		var written, read int
		var aClosed, bClosed bool
		var pending chan pipeResult
		var pendStart, pendSize int

		deadline := func() time.Time { return time.Now().Add(5 * time.Second) }
		// full waits until the parked writer has filled the buffer.
		full := func() {
			for end := deadline(); ; runtime.Gosched() {
				h.mu.Lock()
				n := h.n
				h.mu.Unlock()
				if n == MaxCombinedWrite {
					break
				}
				if time.Now().After(end) {
					t.Fatalf("writer parked with %d of %d buffer bytes used", n, MaxCombinedWrite)
				}
			}
			select {
			case r := <-pending:
				t.Fatalf("write of %d bytes returned (%d, %v) with %d still to buffer", pendSize, r.n, r.err, pendStart+pendSize-read-MaxCombinedWrite)
			default:
			}
		}
		// settle collects the write in flight, which must return n, err.
		settle := func(n int, err error) {
			select {
			case r := <-pending:
				if r.n != n || r.err != err {
					t.Fatalf("write of %d bytes at %d returned (%d, %v), want (%d, %v)", pendSize, pendStart, r.n, r.err, n, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("write of %d bytes at %d still parked with room for it (read %d)", pendSize, pendStart, read)
			}
			written, pending = pendStart+n, nil
		}
		// track settles the write in flight if what is left of it now fits,
		// else waits for it to fill the buffer again.
		track := func() {
			if pending == nil {
				return
			}
			if pendStart+pendSize-read <= MaxCombinedWrite {
				settle(pendSize, nil)
			} else {
				full()
			}
		}
		// closeUnder wakes the write in flight by a close: it took what had
		// filled the buffer.
		closeUnder := func() {
			if pending != nil {
				settle(read+MaxCombinedWrite-pendStart, io.ErrClosedPipe)
			}
		}

		for len(ops) >= 3 {
			kind, size := ops[0]%5, 2*int(binary.LittleEndian.Uint16(ops[1:3]))
			ops = ops[3:]
			switch kind {
			case 0, 1: // write size bytes on a
				if pending != nil {
					continue
				}
				if aClosed || bClosed {
					if n, err := a.Write(streamBytes(written, size)); n != 0 || err != io.ErrClosedPipe {
						t.Fatalf("write after close: (%d, %v), want (0, ErrClosedPipe)", n, err)
					}
					continue
				}
				pending, pendStart, pendSize = make(chan pipeResult, 1), written, size
				go func(p []byte, res chan pipeResult) {
					n, err := a.Write(p)
					res <- pipeResult{n, err}
				}(streamBytes(written, size), pending)
				track()
			case 2: // read up to size bytes on b
				p := make([]byte, size)
				buffered := written - read
				if pending != nil {
					buffered = MaxCombinedWrite
				}
				switch {
				case bClosed:
					if n, err := b.Read(p); n != 0 || err != io.ErrClosedPipe {
						t.Fatalf("read on a closed end: (%d, %v), want (0, ErrClosedPipe)", n, err)
					}
				case size > 0 && buffered == 0 && !aClosed:
					// Nothing to read and nothing coming: the read would park.
				default:
					n, err := b.Read(p)
					want := min(size, buffered)
					if size > 0 && buffered == 0 {
						if n != 0 || err != io.EOF {
							t.Fatalf("drained read after the writer closed: (%d, %v), want (0, EOF)", n, err)
						}
						continue
					}
					if n != want || err != nil {
						t.Fatalf("read of %d with %d buffered: (%d, %v), want (%d, nil)", size, buffered, n, err, want)
					}
					if !bytes.Equal(p[:n], streamBytes(read, n)) {
						t.Fatalf("read %d bytes at stream offset %d: not the bytes written there", n, read)
					}
					read += n
					track()
				}
			case 3: // close a, the writing end
				a.Close()
				aClosed = true
				closeUnder()
			case 4: // close b, the reading end
				b.Close()
				bClosed = true
				closeUnder()
			}
		}
		a.Close()
		b.Close()
		closeUnder()
	})
}

type pipeResult struct {
	n   int
	err error
}
