package ps

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"prophet/internal/transport"
)

// frameBytes is f as it travels on stream 0: the stream id, then the
// ordinary frame.
func frameBytes(f *transport.Frame) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint32(0))
	if err := transport.NewFrameWriter(&buf).WriteFrame(f); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzServeConn feeds arbitrary byte streams to a live server connection.
// The server must terminate (no hang) and must not panic, whatever the
// wire carries: valid pushes, pulls for tensors never pushed, corrupted
// headers, or mid-frame garbage.
func FuzzServeConn(f *testing.F) {
	push := frameBytes(&transport.Frame{Type: transport.Push, Iter: 0, Tensor: 2,
		Payload: make([]byte, 3*8)})
	pull := frameBytes(&transport.Frame{Type: transport.PullReq, Iter: 0, Tensor: 2})
	f.Add(append(append([]byte(nil), push...), pull...)) // push then pull: full round
	f.Add(pull)                                          // pull for a tensor never pushed
	f.Add(push[:len(push)-3])                            // truncated push
	{
		bad := append([]byte(nil), push...)
		bad[4] ^= 0xFF // unknown frame type
		f.Add(bad)
	}
	{
		bad := append([]byte(nil), push...)
		bad[0] = 1 // a stream the connection does not carry
		f.Add(bad)
	}
	{
		odd := frameBytes(&transport.Frame{Type: transport.Push, Iter: 1, Tensor: 0,
			Payload: []byte{1, 2, 3, 4, 5}}) // unaligned payload: not valid float64s
		f.Add(odd)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewServer(1)
		a, b := net.Pipe()
		go io.Copy(io.Discard, a) // drain any responses
		go func() {
			a.Write(data)
			a.Close()
		}()
		done := make(chan struct{})
		go func() {
			srv.ServeMux(b, []int{0})
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("ServeMux did not return after the connection closed")
		}
	})
}
