package transport

import (
	"bytes"
	"encoding/binary"
	"sync"
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

// muxFuzzFrame is one frame a fuzzed batch stages: its stream and payload.
type muxFuzzFrame struct {
	stream  uint32
	payload []byte
}

// muxFuzzBatch is one batch of the combining-write fuzz target: the frames
// one sender ships with one SendBatch, each on its own stream.
type muxFuzzBatch struct {
	sender int
	frames []muxFuzzFrame
}

// parseMuxFuzzBatches cuts fuzz input into batches. Per batch one control
// byte c picks the sender (c mod muxFuzzStreams) and the frame count
// (1 + c>>2 mod 3); per frame one byte x picks the payload length (x mod
// 64), taken from the input that follows, and the stream (the sender's
// plus x>>6, mod muxFuzzStreams), so one batch may carry several streams.
func parseMuxFuzzBatches(data []byte) []muxFuzzBatch {
	var out []muxFuzzBatch
	for len(data) > 0 {
		c := data[0]
		data = data[1:]
		b := muxFuzzBatch{sender: int(c) % muxFuzzStreams}
		for j := 0; j < 1+int(c>>2)%3 && len(data) > 0; j++ {
			x := data[0]
			n := min(int(x)%64, len(data)-1)
			st := uint32(b.sender+int(x>>6)) % muxFuzzStreams
			b.frames = append(b.frames, muxFuzzFrame{st, data[1 : 1+n]})
			data = data[1+n:]
		}
		out = append(out, b)
	}
	return out
}

// FuzzMuxCombinedWrites ships fuzzed batch lists over one pipe, one sender
// goroutine per list, all at once, so that writes combine; a batch points
// its frames at their streams with On. The demuxed frames must be the
// serial reference: per sender, exactly the frames its batches staged, in
// order, byte for byte and each on its stream, each batch's frames back to
// back on the wire. A frame names its sender and batch in its iter.
func FuzzMuxCombinedWrites(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 2, 3, 1, 0, 2, 5, 9, 9, 9, 9, 9})
	f.Add(bytes.Repeat([]byte{0x09, 7, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 0}, 12))
	f.Add([]byte{0xFF, 63, 0xFE, 0, 0x0A, 1, 2})
	f.Add([]byte{0x08, 0x41, 'a', 0x82, 'b', 'c', 0xC0, 0x05, 0x43, 1, 2, 3, 0x80}) // frames on several streams per batch

	f.Fuzz(func(t *testing.T, data []byte) {
		batches := parseMuxFuzzBatches(data)
		a, b := Pipe(0, 0)
		src := NewMuxConn(a, MuxOptions{Streams: muxFuzzStreams})
		dst := NewMuxConn(b, MuxOptions{Streams: muxFuzzStreams, Pool: NewPayloadPool()})
		defer src.Close()
		defer dst.Close()

		// The serial reference: per sender, its batches in order.
		var want [muxFuzzStreams][]muxFuzzBatch
		frames := 0
		for _, bt := range batches {
			want[bt.sender] = append(want[bt.sender], bt)
			frames += len(bt.frames)
		}
		var wg sync.WaitGroup
		for s := range want {
			wg.Add(1)
			go func(list []muxFuzzBatch) {
				defer wg.Done()
				for r, bt := range list {
					mb := src.NewBatch(uint32(bt.sender))
					for j, fr := range bt.frames {
						mb.On(fr.stream)
						if err := mb.AppendFrame(&Frame{Type: Push, Iter: uint32(bt.sender)<<16 | uint32(r), Tensor: uint32(j), Payload: fr.payload}); err != nil {
							t.Error(err)
						}
					}
					if err := src.SendBatch(mb); err != nil {
						t.Error(err)
						return
					}
				}
			}(want[s])
		}

		next := [muxFuzzStreams]int{} // next batch per sender
		open, at := -1, 0             // the sender whose batch is part-read, and its next frame
		for n := 0; n < frames; n++ {
			s, fr, err := dst.Read()
			if err != nil {
				t.Fatalf("frame %d of %d: %v", n, frames, err)
			}
			sender := int(fr.Iter >> 16)
			if sender >= muxFuzzStreams {
				t.Fatalf("frame names sender %d", sender)
			}
			if open >= 0 && sender != open {
				t.Fatalf("sender %d frame inside sender %d's batch", sender, open)
			}
			if next[sender] >= len(want[sender]) {
				t.Fatalf("sender %d: frame beyond its %d batches", sender, len(want[sender]))
			}
			bt := want[sender][next[sender]]
			wf := bt.frames[at]
			if s != wf.stream || fr.Type != Push || int(fr.Iter&0xFFFF) != next[sender] || int(fr.Tensor) != at || !bytes.Equal(fr.Payload, wf.payload) {
				t.Fatalf("sender %d: got stream %d %v iter %d tensor %d payload %x, want stream %d batch %d frame %d payload %x",
					sender, s, fr.Type, fr.Iter&0xFFFF, fr.Tensor, fr.Payload, wf.stream, next[sender], at, wf.payload)
			}
			dst.Done(s, fr)
			if at++; at < len(bt.frames) {
				open = sender
				continue
			}
			open, at = -1, 0
			next[sender]++
		}
		wg.Wait()
	})
}
