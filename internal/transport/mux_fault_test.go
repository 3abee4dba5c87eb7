// The combining write under an injected drop. Lives in package
// transport_test because internal/fault imports transport.
package transport_test

import (
	"errors"
	"io"
	"net"
	"testing"

	"prophet/internal/fault"
	"prophet/internal/transport"
)

// TestMuxCombinedWriteDropFailsTheBatchesItReaches: a connection dropped at
// a byte inside a combined write fails exactly the batches that reach that
// byte — the batches wholly below it succeed, like the senders serial writes
// would have let through — and every failure is the injected drop.
func TestMuxCombinedWriteDropFailsTheBatchesItReaches(t *testing.T) {
	const senders = 5
	// Batch i is one frame of 1+3i floats; ends[i] is its end offset in
	// the write stream.
	floats := func(i int) []float64 { return make([]float64, 1+3*i) }
	var ends [senders]int64
	for i, end := 0, int64(0); i < senders; i++ {
		end += int64(transport.MuxHeaderSize + 8*len(floats(i)))
		ends[i] = end
	}
	// Serial reference: the same batches, one send after another.
	serial := func(at int64) (failed [senders]bool) {
		a, b := transport.Pipe(0, 0)
		defer b.Close()
		go io.Copy(io.Discard, b)
		m := transport.NewMuxConn(fault.DropAt(at).Wrap(a), transport.MuxOptions{Streams: senders})
		defer m.Close()
		for i := range failed {
			failed[i] = m.SendFloats(uint32(i), transport.Push, 0, 0, floats(i)) != nil
		}
		return failed
	}

	// Batch 0 is the first write alone; batches 1–4 are one combined write
	// over [ends[0], ends[4]).
	for name, at := range map[string]int64{
		"first byte of the combined write": ends[0],
		"inside batch 2":                   ends[1] + 5,
		"batch boundary 2|3":               ends[2],
		"last byte of batch 4":             ends[4] - 1,
	} {
		t.Run(name, func(t *testing.T) {
			a, b := net.Pipe() // a rendezvous: the staged sends stay queued
			defer b.Close()
			m := transport.NewMuxConn(fault.DropAt(at).Wrap(a), transport.MuxOptions{Streams: senders})
			defer m.Close()
			batches := make([]*transport.MuxBatch, senders)
			for i := range batches {
				batches[i] = m.NewBatch(uint32(i))
				if err := batches[i].AppendFloats(transport.Push, 0, 0, floats(i)); err != nil {
					t.Fatal(err)
				}
			}
			res := transport.StageSends(t, m, batches)
			go io.Copy(io.Discard, b)

			want := serial(at)
			for i, ch := range res {
				err := <-ch
				if fail := ends[i] > at; (err != nil) != fail || (err != nil) != want[i] {
					t.Fatalf("batch %d over [%d, %d) with a drop at %d: err %v; want failed=%v (serial writes: %v)",
						i, ends[i]-int64(transport.MuxHeaderSize+8*len(floats(i))), ends[i], at, err, fail, want[i])
				}
				if err != nil && !errors.Is(err, fault.ErrInjectedDrop) {
					t.Fatalf("batch %d: %v, want the injected drop", i, err)
				}
			}
		})
	}
}
