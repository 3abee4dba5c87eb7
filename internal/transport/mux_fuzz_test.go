package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// muxFuzzStreams is the stream count the fuzz target demuxes against.
const muxFuzzStreams = 3

// FuzzMuxReadFrame feeds arbitrary bytes to the mux demux loop and checks
// it against a straight-line reference parse of the same input: no panics,
// stream ids in range, and every returned frame — whatever its type byte,
// the reserved 4 included: rejecting types is the owners' handlers' job —
// bit-identical to what the wire spec says sits at that offset.
func FuzzMuxReadFrame(f *testing.F) {
	// Valid interleaving: data on stream 1, a header-only frame of the
	// reserved type 4 on stream 2, data on stream 0 — produced by a real
	// MuxConn so the seed tracks the writer.
	valid := func() []byte {
		c := &memConn{}
		m := NewMuxConn(c, MuxOptions{Streams: muxFuzzStreams})
		if err := m.SendFloats(1, Push, 7, 2, []float64{1, -2, 3}); err != nil {
			f.Fatal(err)
		}
		c.buf.Write(appendMuxHeader(nil, 2, 4, 64, 0, 0))
		if err := m.SendFrame(0, &Frame{Type: PullReq, Iter: 7, Tensor: 2}); err != nil {
			f.Fatal(err)
		}
		return c.buf.Bytes()
	}()
	f.Add(valid)
	f.Add(valid[:9])                                               // truncated mid-header
	f.Add(valid[:MuxHeaderSize+5])                                 // truncated mid-payload
	f.Add([]byte{})                                                // empty
	f.Add(bytes.Repeat([]byte{0xFF}, MuxHeaderSize))               // stream out of range
	f.Add(appendMuxHeader(nil, 0, Push, 1, 2, 8))                  // header promises absent payload
	f.Add(append(appendMuxHeader(nil, 0, 4, 4, 0, 4), 1, 2, 3, 4)) // reserved type, with payload
	f.Add(func() []byte {                                          // oversized length field
		h := appendMuxHeader(nil, 0, Push, 0, 0, 0)
		h[13], h[14], h[15], h[16] = 0x01, 0x00, 0x00, 0x10
		return h
	}())

	f.Fuzz(func(t *testing.T, data []byte) {
		c := &memConn{}
		c.buf.Write(data)
		m := NewMuxConn(c, MuxOptions{Streams: muxFuzzStreams, Pool: NewPayloadPool()})
		cur := 0
		for {
			s, fr, err := m.Read()

			// Reference parse of the frame at cur, or decide the input is
			// exhausted/malformed there.
			var (
				wantStream uint32
				want       Frame
				wantOK     bool
			)
			if cur+MuxHeaderSize <= len(data) { // else EOF (possibly mid-header)
				hdr := data[cur : cur+MuxHeaderSize]
				st := binary.LittleEndian.Uint32(hdr[0:4])
				n := binary.LittleEndian.Uint32(hdr[13:17])
				// Otherwise: stream out of range, oversized or truncated payload.
				if st < muxFuzzStreams && n <= MaxPayload && cur+MuxHeaderSize+int(n) <= len(data) {
					want = Frame{
						Type:   MsgType(hdr[4]),
						Iter:   binary.LittleEndian.Uint32(hdr[5:9]),
						Tensor: binary.LittleEndian.Uint32(hdr[9:13]),
					}
					if n > 0 {
						want.Payload = data[cur+MuxHeaderSize : cur+MuxHeaderSize+int(n)]
					}
					wantStream = st
					cur += MuxHeaderSize + int(n)
					wantOK = true
				}
			}

			if err != nil {
				if wantOK {
					t.Fatalf("Read errored (%v) where reference parses stream %d frame %+v", err, wantStream, want)
				}
				return
			}
			if !wantOK {
				t.Fatalf("Read returned stream %d frame %+v where reference expects error/EOF", s, fr)
			}
			if s >= muxFuzzStreams {
				t.Fatalf("Read returned out-of-range stream %d", s)
			}
			if s != wantStream || fr.Type != want.Type || fr.Iter != want.Iter ||
				fr.Tensor != want.Tensor || !bytes.Equal(fr.Payload, want.Payload) {
				t.Fatalf("frame mismatch at offset: got stream %d %+v, want stream %d %+v",
					s, fr, wantStream, want)
			}
			m.Done(s, fr)
		}
	})
}
