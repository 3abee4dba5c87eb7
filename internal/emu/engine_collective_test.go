package emu

import (
	"math"
	"sync"
	"testing"

	"prophet/internal/drive"
	"prophet/internal/probe"
	"prophet/internal/probe/attrib"
	"prophet/internal/probe/predict"
)

// TestCollectiveAckIsZero pins the collective transports' attribution
// invariant on the live wire: a collective op leaves the aggregated
// gradient on every worker the instant it completes — there is no pull
// leg — so the engine emits PullAcked with the op's own completion
// timestamp and the analyzer's Ack component (Acked − End) is exactly
// zero, matching the simulator's collectiveTx. The same run must carry
// the per-chunk step spans: every op on a 4-worker ring plays 2(W−1) = 6
// chunk steps.
func TestCollectiveAckIsZero(t *testing.T) {
	for _, tc := range []struct {
		transport string
		steps     int
	}{
		{"ring", 6}, // 2(W−1)
		{"tree", 4}, // 2·log₂W
	} {
		t.Run(tc.transport, func(t *testing.T) {
			rec := probe.NewSpanRecorder()
			cfg := baseConfig()
			cfg.Workers = 4
			cfg.Iterations = 4
			cfg.Transport = tc.transport
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

			steps := rec.Steps()
			if len(steps) == 0 {
				t.Fatal("no collective step spans recorded")
			}
			for _, s := range steps {
				if s.Steps != tc.steps {
					t.Fatalf("step span reports %d steps/op, want %d", s.Steps, tc.steps)
				}
				if s.End < s.Start {
					t.Fatalf("step span ends before it starts: %+v", s)
				}
			}
		})
	}
}

// wireSendSeen is one SendStart as wireContract saw it: the span's key and
// bytes, the ranges it carried, and the step spans reported under it.
type wireSendSeen struct {
	iter, seq        int
	bytes, stepBytes float64
	ranges           []probe.Range
	steps, ofSteps   int
	complete         bool
}

// wireContract records, per worker and in arrival order, what the
// SpanRecorder does not keep: each send's ranges and the step spans that
// belong to it. Events of one (worker, lane) arrive in order and a
// collective worker has one lane, so "the open send" is the last one.
type wireContract struct {
	*probe.SpanRecorder
	mu    sync.Mutex
	sends map[int][]*wireSendSeen
}

func (o *wireContract) SendStart(worker, lane, seq, iter, prio int, label string, bytes float64, ranges []probe.Range, now float64) {
	o.mu.Lock()
	o.sends[worker] = append(o.sends[worker], &wireSendSeen{
		iter: iter, seq: seq, bytes: bytes, ranges: append([]probe.Range(nil), ranges...),
	})
	o.mu.Unlock()
	o.SpanRecorder.SendStart(worker, lane, seq, iter, prio, label, bytes, ranges, now)
}

func (o *wireContract) SendStep(worker, lane, seq, step, steps int, bytes float64, start, end float64) {
	o.mu.Lock()
	if open := o.sends[worker]; len(open) > 0 && open[len(open)-1].seq == seq && !open[len(open)-1].complete {
		snd := open[len(open)-1]
		snd.stepBytes += bytes
		snd.steps++
		snd.ofSteps = steps
	}
	o.mu.Unlock()
	o.SpanRecorder.SendStep(worker, lane, seq, step, steps, bytes, start, end)
}

func (o *wireContract) SendComplete(worker, lane, iter int, msgDone bool, now float64) {
	o.mu.Lock()
	if open := o.sends[worker]; len(open) > 0 {
		open[len(open)-1].complete = true
	}
	o.mu.Unlock()
	o.SpanRecorder.SendComplete(worker, lane, iter, msgDone, now)
}

// TestCollectiveObserverContract pins what an observer sees of the fused
// wire: one send per group of decided sends, not per send. On a model whose
// plan cuts into more than one group, under a policy whose sends carry one
// tensor (fifo) and one whose sends carry several (prophet): every
// iteration's sends cover every tensor exactly once, whole, across their
// ranges; a send's step spans are the backend's full schedule and add up to
// its bytes times the backend's wire volume, up to the floor each tensor's
// own segmentation takes per step; and with the audit armed every planned
// window joins its observed span.
func TestCollectiveObserverContract(t *testing.T) {
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
				wantSteps := cfg.backend.Steps(cfg.Workers)

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
						if snd.steps != wantSteps || snd.ofSteps != wantSteps {
							t.Fatalf("worker %d iter %d seq %d: %d step spans of %d, want %d of %d",
								w, snd.iter, snd.seq, snd.steps, snd.ofSteps, wantSteps, wantSteps)
						}
						slack := float64(8 * len(snd.ranges) * wantSteps)
						if math.Abs(snd.stepBytes-snd.bytes*volume) > slack {
							t.Fatalf("worker %d iter %d seq %d: steps moved %v bytes, want %v x %v within %v",
								w, snd.iter, snd.seq, snd.stepBytes, snd.bytes, volume, slack)
						}
					}
					for iter, row := range carried {
						for tensor, n := range row {
							if n != 1 {
								t.Fatalf("worker %d iter %d: tensor %d carried %d times, want once", w, iter, tensor, n)
							}
						}
					}
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
