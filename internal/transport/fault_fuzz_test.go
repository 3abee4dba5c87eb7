// Fuzz seeds derived from the fault injector: frames pushed through
// connections that corrupt, truncate, or drop the stream, so the fuzzer
// starts from the exact byte patterns real injected faults produce. Lives
// in package transport_test because internal/fault imports transport.
package transport_test

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"prophet/internal/fault"
	"prophet/internal/transport"
)

// faultedStream writes the given frames through a spec-wrapped connection
// and returns the bytes that arrived at the other end.
func faultedStream(t testing.TB, spec fault.Spec, frames []*transport.Frame) []byte {
	t.Helper()
	a, b := net.Pipe()
	var got bytes.Buffer
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		io.Copy(&got, b)
	}()
	fw := transport.NewFrameWriter(spec.Wrap(a))
	for _, fr := range frames {
		if err := fw.WriteFrame(fr); err != nil {
			break // injected drops end the stream mid-frame — that's the point
		}
	}
	a.Close()
	wg.Wait()
	b.Close()
	return got.Bytes()
}

// FuzzReadFrameFaultStream drives FrameReader with streams that passed
// through the fault injector: XOR-corrupted bytes, connections dropped
// mid-frame (truncation), plus an oversized length field. Read must never
// panic and must never return a frame whose payload length disagrees with
// what the stream carried.
func FuzzReadFrameFaultStream(f *testing.F) {
	frames := []*transport.Frame{
		{Type: transport.Push, Iter: 3, Tensor: 1, Payload: make([]byte, 4*8)},
		{Type: transport.PullReq, Iter: 3, Tensor: 1},
		{Type: transport.PullResp, Iter: 3, Tensor: 1, Payload: make([]byte, 8)},
	}
	// Corrupt each region of the first frame: type byte, length field,
	// payload.
	for _, at := range []int64{1, 10, 20} {
		f.Add(faultedStream(f, fault.CorruptAt(at), frames))
	}
	// Drop mid-header and mid-payload: truncated streams.
	for _, at := range []int64{5, 25} {
		f.Add(faultedStream(f, fault.DropAt(at), frames))
	}
	// Clean stream (valid multi-frame input).
	f.Add(faultedStream(f, fault.Spec{}, frames))
	// Oversized declared length beyond MaxPayload.
	f.Add([]byte{byte(transport.Push), 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := transport.NewFrameReader(bytes.NewReader(data), nil)
		deadline := time.Now().Add(2 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatal("read loop did not terminate")
			}
			fr, err := r.Read()
			if err != nil {
				return // any malformed stream must surface as an error, not a panic
			}
			if len(fr.Payload) > transport.MaxPayload {
				t.Fatalf("accepted payload of %d bytes past MaxPayload", len(fr.Payload))
			}
		}
	})
}
