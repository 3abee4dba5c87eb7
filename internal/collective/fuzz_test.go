package collective

import (
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"prophet/internal/transport"
)

const (
	fuzzWorkers = 4
	fuzzElems   = 16      // ring segments of 4 elements; tree chunks of 8 and 4
	fuzzOps     = 2       // op iters 0 and 1, so a stray chunk can outlive its op
	fuzzRecord  = 5       // script bytes per injected frame
	fuzzFrames  = 32      // frames injected per run, at most
	fuzzLong    = 8 << 10 // payload bytes of a long frame: twice the mux's read buffer
)

// fuzzGroup is what op 1 fuses behind op 0's one tensor: an empty member,
// one shorter than the ring, and one long enough that every fused frame of
// the op — 516 floats and up — outgrows the mux's read buffer.
var fuzzGroup = []int{fuzzElems, 0, 3, 4 * transport.MuxReadBuffer / 8}

// fuzzFrame is one injected mux frame, decoded from fuzzRecord script bytes:
// any stream up to one past the last, any type byte 0–7 (Chunk is 5, the
// reserved 4 is in there), an (iter, step) tag around the ops the peers run,
// and a payload of 0–71 bytes — so lengths that are not whole floats, and
// whole-float lengths that are not the step's chunk length, both occur — or,
// for script byte 0xFF, of fuzzLong bytes: a frame the receive side's read
// buffer cannot hold.
type fuzzFrame struct {
	stream, iter, step uint32
	typ                transport.MsgType
	payload            int
}

func decodeFuzzFrame(rec []byte, steps int) fuzzFrame {
	fr := fuzzFrame{
		stream:  uint32(rec[0]) % (fuzzWorkers + 1),
		typ:     transport.MsgType(rec[1] % 8),
		iter:    uint32(rec[2]) % (fuzzOps + 2),
		step:    uint32(rec[3]) % uint32(steps+2),
		payload: int(rec[4]) % 72,
	}
	if rec[4] == 0xFF {
		fr.payload = fuzzLong
	}
	return fr
}

// wire is the frame's bytes as a MuxConn would have written them; every
// whole float in the payload is 1.0.
func (fr fuzzFrame) wire() []byte {
	b := make([]byte, transport.MuxHeaderSize+fr.payload)
	binary.LittleEndian.PutUint32(b[0:], fr.stream)
	b[4] = byte(fr.typ)
	binary.LittleEndian.PutUint32(b[5:], fr.iter)
	binary.LittleEndian.PutUint32(b[9:], fr.step)
	binary.LittleEndian.PutUint32(b[13:], uint32(fr.payload))
	for off := transport.MuxHeaderSize; off+8 <= len(b); off += 8 {
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(1))
	}
	return b
}

// passesForReal reports whether deliver queues the frame under a tag some
// peer will wait for: only such a frame can stand in for a real chunk.
func (fr fuzzFrame) passesForReal(steps int) bool {
	return fr.typ == transport.Chunk && fr.stream < fuzzWorkers && fr.payload%8 == 0 &&
		fr.iter < fuzzOps && int(fr.step) < steps
}

// FuzzFabricDeliver writes arbitrary well-framed mux frames — wrong type,
// payload not a multiple of 8, out-of-range stream, duplicate or
// never-awaited (iter, step), wrong chunk length — onto a small ring's or
// tree's wire while its peers run two ops. Whatever arrives: no panic, the
// demux loop never stops draining the wire (the injector's writes all
// return), every peer returns inside a bound with its result or an error
// this package attributed, and when nothing injected could pass for a real
// chunk a clean run still yields the bit-identical mean — of the one tensor
// op 0 reduces alone and op 1 reduces fused (fuzzGroup).
func FuzzFabricDeliver(f *testing.F) {
	// TestBadFrameUnblocksEveryPeer's two cases (stream 2), then one seed per
	// class named above.
	f.Add(false, []byte{2, byte(transport.Chunk), 0, 0, 7})           // short chunk
	f.Add(false, []byte{2, byte(transport.Push), 0, 0, 8})            // wrong type
	f.Add(true, []byte{1, 4, 0, 0, 0})                                // the reserved type
	f.Add(true, []byte{fuzzWorkers, byte(transport.Chunk), 0, 0, 32}) // stream out of range
	f.Add(false, []byte{1, byte(transport.Chunk), 0, 0, 32})          // duplicate of a real (iter, step)
	f.Add(true, []byte{3, byte(transport.Chunk), 1, 1, 8})            // awaited tag, wrong chunk length
	f.Add(false, []byte{0, byte(transport.Chunk), 3, 7, 16})          // never awaited
	f.Add(false, []byte{0, byte(transport.Chunk), 3, 7, 0xFF})        // never awaited, longer than the read buffer
	f.Add(false, []byte{1, byte(transport.Chunk), 1, 2, 0xFF})        // stands in for a fused frame longer than the read buffer
	f.Add(true, []byte{})

	f.Fuzz(func(t *testing.T, tree bool, script []byte) {
		backend := "ring"
		if tree {
			backend = "tree"
		}
		a, b := transport.Pipe(0, 0)
		fab, err := Over(backend, fuzzWorkers, a, b)
		if err != nil {
			t.Fatal(err)
		}
		var frames []fuzzFrame
		clean := true
		for ; len(script) >= fuzzRecord && len(frames) < fuzzFrames; script = script[fuzzRecord:] {
			fr := decodeFuzzFrame(script, fab.steps)
			frames = append(frames, fr)
			clean = clean && !fr.passesForReal(fab.steps)
		}

		// One raw Write per frame (a pipe Write is atomic against the peers'
		// own), racing the ops. A failed write means the demux loop has
		// rejected something and closed the wire; the rest cannot be sent.
		injected := make(chan struct{})
		go func() {
			defer close(injected)
			for _, fr := range frames {
				if _, err := a.Write(fr.wire()); err != nil {
					return
				}
			}
		}()
		type result struct {
			w    int
			data []float64
			err  error
		}
		results := make(chan result, fuzzWorkers)
		for w := 0; w < fuzzWorkers; w++ {
			go func(w int) {
				group := make([][]float64, len(fuzzGroup))
				for m, n := range fuzzGroup {
					group[m] = make([]float64, n)
				}
				data := group[0]
				fill := func() {
					for i := range data {
						data[i] = float64(w*fuzzElems + i)
					}
				}
				// Op 0 is the one tensor alone, op 1 the same tensor fused.
				fill()
				err := fab.Peer(w).AllReduce(0, data, nil)
				if err == nil {
					fill()
					err = fab.Peer(w).AllReduceFused(1, group, nil)
				}
				results <- result{w, data, err}
			}(w)
		}

		bound := time.After(10 * time.Second)
		stuck := func(what string) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s still blocked after 10s:\n%s", what, buf[:runtime.Stack(buf, true)])
		}
		out := make([][]float64, fuzzWorkers)
		failed := false
		for n := 0; n < fuzzWorkers; n++ {
			select {
			case r := <-results:
				out[r.w] = r.data
				if r.err != nil {
					failed = true
					if !strings.HasPrefix(r.err.Error(), "collective: ") {
						t.Errorf("peer %d: unattributed error %v", r.w, r.err)
					}
				}
			case <-bound:
				stuck("a peer")
			}
		}
		select {
		case <-injected:
		case <-bound:
			stuck("the injector (the demux loop stopped reading)")
		}
		if err := fab.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if failed || !clean {
			return
		}
		for w := range out {
			for i, v := range out[w] {
				// mean over w of (w·n + i)
				if want := float64(fuzzWorkers-1)*fuzzElems/2 + float64(i); v != out[0][i] || math.Abs(v-want) > 1e-9 {
					t.Fatalf("%s peer %d element %d = %v, peer 0 has %v, want ~%v", backend, w, i, v, out[0][i], want)
				}
			}
		}
	})
}
