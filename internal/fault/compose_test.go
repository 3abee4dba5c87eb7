package fault

// Chaos composition: the injectors key on absolute byte offsets in the
// write stream, and the wire's tagged frames (stream id + frame header) are
// a deterministic byte stream — so every fault schedule must hit exactly
// the configured offset, and behave identically whether frames leave one
// send at a time or as one batched write. These tests pin that byte for
// byte. Offsets are spelled in units of the frame layout: hdr is one tagged
// header, f64 one payload element.

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"prophet/internal/transport"
)

const (
	hdr = transport.MuxHeaderSize
	f64 = 8
)

// deliver writes test frames through a spec-wrapped pipe endpoint and
// returns every byte the peer received plus the write-side error.
func deliver(t *testing.T, spec Spec, write func(c net.Conn) error) ([]byte, error) {
	t.Helper()
	a, b := net.Pipe()
	var buf bytes.Buffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		io.Copy(&buf, b)
	}()
	werr := write(spec.Wrap(a))
	a.Close()
	<-done
	b.Close()
	return buf.Bytes(), werr
}

// The composition stream, on one connection of three streams: a push of
// three elements on stream 1, a bare pull request on stream 0, then a push
// of one element and its pull request on stream 2.
//
//	[0, hdr+3·f64)  push    [hdr+3·f64, 2·hdr+3·f64)  pull request
//	[2·hdr+3·f64, 3·hdr+4·f64)  push    [3·hdr+4·f64, 4·hdr+4·f64)  pull request
const streamLen = 4*hdr + 4*f64

// sequential ships every frame as its own send.
func sequential(c net.Conn) error {
	mc := transport.NewMuxConn(c, transport.MuxOptions{Streams: 3})
	if err := mc.SendFloats(1, transport.Push, 2, 0, []float64{1, 2, 3}); err != nil {
		return err
	}
	if err := mc.SendFrame(0, &transport.Frame{Type: transport.PullReq, Iter: 2}); err != nil {
		return err
	}
	if err := mc.SendFloats(2, transport.Push, 2, 1, []float64{4}); err != nil {
		return err
	}
	return mc.SendFrame(2, &transport.Frame{Type: transport.PullReq, Iter: 2, Tensor: 1})
}

// batched ships the two stream-2 frames as one batch, one write.
func batched(c net.Conn) error {
	mc := transport.NewMuxConn(c, transport.MuxOptions{Streams: 3})
	if err := mc.SendFloats(1, transport.Push, 2, 0, []float64{1, 2, 3}); err != nil {
		return err
	}
	if err := mc.SendFrame(0, &transport.Frame{Type: transport.PullReq, Iter: 2}); err != nil {
		return err
	}
	b := mc.NewBatch(2)
	if err := b.AppendFloats(transport.Push, 2, 1, []float64{4}); err != nil {
		return err
	}
	if err := b.AppendFrame(&transport.Frame{Type: transport.PullReq, Iter: 2, Tensor: 1}); err != nil {
		return err
	}
	return mc.SendBatch(b)
}

func TestFaultsComposeWithFrames(t *testing.T) {
	clean, err := deliver(t, Spec{}, batched)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) != streamLen {
		t.Fatalf("clean stream is %d bytes, want %d", len(clean), streamLen)
	}

	// Inside the first payload (corrupt), on the frame boundary between the
	// batch's header and payload (drop), and inside the batch's payload
	// (stall).
	specs := []Spec{
		CorruptAt(hdr + 3),
		DropAt(3*hdr + 3*f64),
		StallAt(3*hdr+3*f64+5, time.Millisecond),
	}
	for _, spec := range specs {
		t.Run(spec.String(), func(t *testing.T) {
			seqBytes, seqErr := deliver(t, spec, sequential)
			batBytes, batErr := deliver(t, spec, batched)
			if !bytes.Equal(seqBytes, batBytes) {
				t.Fatalf("delivered streams differ under %v:\nseq  (%d) %x\nbatch (%d) %x",
					spec, len(seqBytes), seqBytes, len(batBytes), batBytes)
			}
			switch {
			case spec.DropAfterBytes > 0:
				// A drop mid-batch delivers exactly the configured prefix:
				// the batch write is split, not atomically dropped.
				if !errors.Is(seqErr, ErrInjectedDrop) || !errors.Is(batErr, ErrInjectedDrop) {
					t.Fatalf("expected injected drop on both paths, got seq %v, batch %v", seqErr, batErr)
				}
				if !bytes.Equal(batBytes, clean[:spec.DropAfterBytes]) {
					t.Fatalf("drop delivered %d bytes (%x), want the clean %d-byte prefix",
						len(batBytes), batBytes, spec.DropAfterBytes)
				}
			case seqErr != nil || batErr != nil:
				t.Fatalf("unexpected write errors: seq %v, batch %v", seqErr, batErr)
			case spec.CorruptAtByte > 0:
				// Corruption flips exactly the configured offset.
				want := append([]byte(nil), clean...)
				want[spec.CorruptAtByte] ^= 0xFF
				if !bytes.Equal(batBytes, want) {
					t.Fatalf("corruption moved or leaked:\n got %x\nwant %x", batBytes, want)
				}
			default:
				if !bytes.Equal(batBytes, clean) {
					t.Fatalf("stall changed the stream:\n got %x\nwant %x", batBytes, clean)
				}
			}
		})
	}
}

// TestCorruptedBatchStillFrames checks the reader-side view: a corruption
// inside one frame of a batched write flips exactly that frame's payload
// byte, leaving the framing of every other frame in the batch intact.
func TestCorruptedBatchStillFrames(t *testing.T) {
	xs := []float64{1, 2}
	write := func(c net.Conn) error {
		mc := transport.NewMuxConn(c, transport.MuxOptions{Streams: 1})
		b := mc.NewBatch(0)
		if err := b.AppendFloats(transport.Push, 1, 0, xs); err != nil {
			return err
		}
		if err := b.AppendFrame(&transport.Frame{Type: transport.PullReq, Iter: 1}); err != nil {
			return err
		}
		return mc.SendBatch(b)
	}
	clean, err := deliver(t, Spec{}, write)
	if err != nil {
		t.Fatal(err)
	}
	// Byte hdr is the first payload byte of the first frame.
	got, err := deliver(t, CorruptAt(hdr), write)
	if err != nil {
		t.Fatal(err)
	}

	a, b := net.Pipe()
	defer b.Close()
	go func() {
		a.Write(got)
		a.Close()
	}()
	mc := transport.NewMuxConn(b, transport.MuxOptions{Streams: 1})
	_, f1, err := mc.Read()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), clean[hdr:hdr+len(xs)*f64]...)
	want[0] ^= 0xFF
	if !bytes.Equal(f1.Payload, want) {
		t.Fatalf("corruption moved: got %x want %x", f1.Payload, want)
	}
	_, f2, err := mc.Read()
	if err != nil {
		t.Fatal(err)
	}
	if f2.Type != transport.PullReq || f2.Iter != 1 {
		t.Fatalf("second frame of the batch lost framing: %+v", f2)
	}
}
