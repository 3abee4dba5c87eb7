package emu

import (
	"math"
	"sync"
	"testing"

	"prophet/internal/drive"
	"prophet/internal/probe"
	"prophet/internal/probe/attrib"
	"prophet/internal/probe/predict"
	"prophet/internal/transport"
)

// TestCollectiveAckIsZero pins the collective transports' attribution
// invariant on the live wire: a collective op leaves the aggregated
// gradient on every worker the instant it completes — there is no pull
// leg — so the engine emits PullAcked with the op's own completion
// timestamp and the analyzer's Ack component (Acked − End) is exactly
// zero, matching the simulator's collectiveTx.
func TestCollectiveAckIsZero(t *testing.T) {
	for _, transport := range []string{"ring", "tree"} {
		t.Run(transport, func(t *testing.T) {
			rec := probe.NewSpanRecorder()
			cfg := baseConfig()
			cfg.Workers = 4
			cfg.Iterations = 4
			cfg.Transport = transport
			cfg.Observer = rec
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}

			rep := attrib.Analyze(rec, 3)
			if res := rep.MaxResidual(); res > 1e-9 {
				t.Fatalf("attribution residual %g, want ~0", res)
			}
			for w := 0; w < cfg.Workers; w++ {
				m := rep.Mean(w, 1)
				if m.Ack != 0 {
					t.Fatalf("worker %d mean Ack = %g, want exactly 0 for collective ops", w, m.Ack)
				}
				if m.Completion <= 0 {
					t.Fatalf("worker %d has no completion mass — analyzer saw no gradients", w)
				}
			}
		})
	}
}

// wireSendSeen is one SendStart as wireContract saw it: the span's key and
// bytes, and the ranges it carried.
type wireSendSeen struct {
	iter, seq int
	bytes     float64
	ranges    []probe.Range
	complete  bool
}

// wireContract records, per worker and in arrival order, what the
// SpanRecorder does not keep: each send's ranges. Events of one (worker,
// lane) arrive in order and a collective worker has one lane, so "the open
// send" is the last one.
type wireContract struct {
	*probe.SpanRecorder
	mu    sync.Mutex
	sends map[int][]*wireSendSeen
}

func (o *wireContract) SendStart(worker, lane, seq, iter int, label string, bytes float64, ranges []probe.Range, now float64) {
	o.mu.Lock()
	o.sends[worker] = append(o.sends[worker], &wireSendSeen{
		iter: iter, seq: seq, bytes: bytes, ranges: append([]probe.Range(nil), ranges...),
	})
	o.mu.Unlock()
	o.SpanRecorder.SendStart(worker, lane, seq, iter, label, bytes, ranges, now)
}

func (o *wireContract) SendComplete(worker, lane, iter int, now float64) {
	o.mu.Lock()
	if open := o.sends[worker]; len(open) > 0 {
		open[len(open)-1].complete = true
	}
	o.mu.Unlock()
	o.SpanRecorder.SendComplete(worker, lane, iter, now)
}

// TestCollectiveObserverContract pins what an observer sees of the fused
// wire: one send per group of decided sends, not per send. On a model whose
// plan cuts into more than one group, under a policy whose sends carry one
// tensor (fifo) and one whose sends carry several (prophet): every
// iteration's sends cover every tensor exactly once, whole, across their
// ranges; the fabric's metered pipe carries, besides one frame header per
// worker per step of every send, the sends' bytes times the backend's wire
// volume, up to the floor each tensor's own segmentation takes per step; and
// with the audit armed every planned window joins its observed span.
func TestCollectiveObserverContract(t *testing.T) {
	const header = transport.MuxHeaderSize // per chunk frame, on the metered pipe
	for _, transport := range []string{"ring", "tree"} {
		for _, policy := range []string{"fifo", "prophet"} {
			t.Run(transport+"/"+policy, func(t *testing.T) {
				obs := &wireContract{SpanRecorder: probe.NewSpanRecorder(), sends: make(map[int][]*wireSendSeen)}
				cfg := baseConfig()
				cfg.Workers = 4
				cfg.Layers = []int{8, 48, 32, 4} // 2 132 elements: more than one W=4 group
				cfg.Iterations = 4
				cfg.Policy = policy
				cfg.Transport = transport
				cfg.BandwidthBytesPerSec = 1e9
				cfg.Metrics = probe.NewMetrics()
				aud := predict.NewAuditor(predict.Options{})
				cfg.Observer = probe.NewMulti(obs, aud)
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
				if err := cfg.validate(); err != nil { // resolves cfg.backend
					t.Fatal(err)
				}
				sizes := tensorSizes(cfg.Layers, cfg.Seed)
				volume := drive.WireVolume(cfg.backend, cfg.Workers)
				steps := cfg.backend.Steps(cfg.Workers)

				var frames, payload, slack float64 // summed over every worker's sends
				for w := 0; w < cfg.Workers; w++ {
					carried := make([][]int, cfg.Iterations) // [iter][tensor] = times carried
					for i := range carried {
						carried[i] = make([]int, len(sizes))
					}
					if len(obs.sends[w]) <= cfg.Iterations {
						t.Fatalf("worker %d: %d sends over %d iterations, want the plan cut into several groups",
							w, len(obs.sends[w]), cfg.Iterations)
					}
					for _, snd := range obs.sends[w] {
						var total float64
						for _, rg := range snd.ranges {
							if !rg.Last || rg.Off != 0 || rg.Bytes != sizes[rg.Grad] {
								t.Fatalf("worker %d iter %d seq %d: range %+v is not tensor %d whole (%v bytes)",
									w, snd.iter, snd.seq, rg, rg.Grad, sizes[rg.Grad])
							}
							carried[snd.iter][rg.Grad]++
							total += rg.Bytes
						}
						if !snd.complete || total != snd.bytes {
							t.Fatalf("worker %d iter %d seq %d: complete=%v, %v bytes over ranges of %v",
								w, snd.iter, snd.seq, snd.complete, snd.bytes, total)
						}
						frames += float64(steps)
						payload += snd.bytes * volume
						slack += float64(8 * len(snd.ranges) * steps)
					}
					for iter, row := range carried {
						for tensor, n := range row {
							if n != 1 {
								t.Fatalf("worker %d iter %d: tensor %d carried %d times, want once", w, iter, tensor, n)
							}
						}
					}
				}

				tx := float64(cfg.Metrics.Counter("transport_collective_tx_bytes").Value())
				if moved := tx - frames*header; math.Abs(moved-payload) > slack {
					t.Fatalf("the fabric moved %v payload bytes in %v frames, want %v within %v", moved, frames, payload, slack)
				}

				if res := attrib.Analyze(obs.SpanRecorder, 3).MaxResidual(); res > 1e-9 {
					t.Fatalf("attribution residual %g, want ~0", res)
				}
				aud.Flush()
				rep := aud.Report()
				if rep.Planned == 0 || rep.Joined != rep.Planned {
					t.Fatalf("%d planned windows, %d joined: a (worker, lane, seq, iter) key went unmatched", rep.Planned, rep.Joined)
				}
			})
		}
	}
}
