package transport

import (
	"bytes"
	"testing"
)

// Fuzzing: frame parsing must never panic or over-allocate on arbitrary
// bytes, and valid frames must round-trip.
func FuzzReadFrame(f *testing.F) {
	var seed []byte
	{
		var buf bytes.Buffer
		NewFrameWriter(&buf).WriteFrame(&Frame{Type: Push, Iter: 1, Tensor: 2, Payload: []byte{1, 2, 3}})
		seed = buf.Bytes()
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// Truncated frame: header promises more payload than follows.
	f.Add(seed[:len(seed)-2])
	// Header-only prefix.
	f.Add(seed[:headerSize])
	// Oversized length field: declares MaxPayload+1 bytes.
	{
		over := append([]byte(nil), seed...)
		over[9], over[10], over[11], over[12] = 0x01, 0x00, 0x00, 0x10 // 1<<28+1 little-endian
		f.Add(over)
	}
	// XOR-corrupted type and length bytes (what a flipped wire byte from
	// the fault injector produces).
	for _, at := range []int{0, 9, len(seed) - 1} {
		bad := append([]byte(nil), seed...)
		bad[at] ^= 0xFF
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := NewFrameReader(bytes.NewReader(data), nil).Read()
		if err != nil {
			return
		}
		// A successfully parsed frame must re-serialize to a prefix of the
		// input.
		var buf bytes.Buffer
		if err := NewFrameWriter(&buf).WriteFrame(fr); err != nil {
			t.Fatalf("reserialize: %v", err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("round trip mismatch: %x is not a prefix of %x", buf.Bytes(), data)
		}
	})
}

func FuzzDecodeFloats(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := decodeFloats(data)
		if err != nil {
			if len(data)%8 == 0 {
				t.Fatalf("aligned payload rejected: %v", err)
			}
			return
		}
		if len(vals) != len(data)/8 {
			t.Fatalf("decoded %d floats from %d bytes", len(vals), len(data))
		}
	})
}
