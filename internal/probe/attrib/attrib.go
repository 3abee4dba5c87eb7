// Package attrib is the stall-attribution analyzer: it decomposes each
// gradient's completion time — from its iteration's start to its
// aggregated value landing back on the worker — into five additive
// components, the per-gradient wait/transfer breakdown of the paper's
// Fig. 11:
//
//	Generation    = Generated − IterStart   compute until the gradient exists
//	PriorityWait  = (Start − Generated) − BandwidthWait
//	                                        held by the scheduler behind
//	                                        higher-priority traffic
//	BandwidthWait = busy(lane, [Generated, Start))
//	                                        the gradient's lane was already
//	                                        transmitting someone else's bytes
//	Transmit      = End − Start             its own bytes on the wire
//	Ack           = Acked − End             aggregation + parameter response
//
// PriorityWait and BandwidthWait partition the pre-wire wait exactly, so
// the five components sum to Acked − IterStart by construction (their
// telescoping is exact up to float addition — well within the 1e-9 the
// acceptance bound asks for). The decomposition works identically on both
// executors because both emit the same probe events: simulated seconds on
// the cluster path, wall seconds on the live path.
package attrib

import (
	"math"
	"sort"

	"prophet/internal/probe"
)

// Components is one gradient's completion-time decomposition.
type Components struct {
	Worker, Iter, Grad int
	// The five additive components, in seconds.
	Generation, PriorityWait, BandwidthWait, Transmit, Ack float64
	// Completion is the measured total: Acked − IterStart.
	Completion float64
}

// Sum returns the components' total, which equals Completion up to float
// addition error.
func (c Components) Sum() float64 {
	return c.Generation + c.PriorityWait + c.BandwidthWait + c.Transmit + c.Ack
}

// Wait returns the pre-wire wait (the paper's T_wait): priority wait plus
// bandwidth wait.
func (c Components) Wait() float64 { return c.PriorityWait + c.BandwidthWait }

// IterationTop lists one (worker, iteration)'s top blocking gradients,
// ranked by Wait() descending.
type IterationTop struct {
	Worker, Iter int
	Top          []Components
}

// Report is the full attribution of one recorded run.
type Report struct {
	// PerGrad holds every fully-observed gradient lifecycle, sorted by
	// (Worker, Iter, Grad).
	PerGrad []Components
	// Top lists the top-K blocking gradients per (worker, iteration),
	// sorted by (Worker, Iter).
	Top []IterationTop
	// Skipped counts gradient lifecycles dropped for missing events (no
	// recorded iteration start, send, or ack — e.g. truncated runs).
	Skipped int
}

// Analyze decomposes every complete gradient lifecycle in the recorder.
// topK bounds the per-iteration blocking list (default 3 when <= 0).
func Analyze(rec *probe.SpanRecorder, topK int) *Report {
	if topK <= 0 {
		topK = 3
	}
	rep := &Report{}
	for _, g := range rec.Grads() {
		if !g.HasStart || !g.HasEnd || !g.HasAcked {
			rep.Skipped++
			continue
		}
		iterStart, ok := rec.IterStart(g.Worker, g.Iter)
		if !ok {
			rep.Skipped++
			continue
		}
		wait := g.Start - g.Generated
		var bw float64
		if busy := rec.LaneBusy(g.Worker, g.Lane); busy != nil {
			// The gradient's own span opens at g.Start, so the window
			// [Generated, Start) only measures other messages' transfers.
			bw = busy.BusyBetween(g.Generated, g.Start)
		}
		if bw > wait {
			bw = wait
		}
		rep.PerGrad = append(rep.PerGrad, Components{
			Worker:        g.Worker,
			Iter:          g.Iter,
			Grad:          g.Grad,
			Generation:    g.Generated - iterStart,
			PriorityWait:  wait - bw,
			BandwidthWait: bw,
			Transmit:      g.End - g.Start,
			Ack:           g.Acked - g.End,
			Completion:    g.Acked - iterStart,
		})
	}
	rep.Top = topBlocking(rep.PerGrad, topK)
	return rep
}

// topBlocking ranks each (worker, iteration)'s gradients by Wait().
func topBlocking(grads []Components, k int) []IterationTop {
	byIter := make(map[[2]int][]Components)
	for _, c := range grads {
		key := [2]int{c.Worker, c.Iter}
		byIter[key] = append(byIter[key], c)
	}
	keys := make([][2]int, 0, len(byIter))
	for key := range byIter {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]IterationTop, 0, len(keys))
	for _, key := range keys {
		cs := byIter[key]
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].Wait() != cs[j].Wait() {
				return cs[i].Wait() > cs[j].Wait()
			}
			return cs[i].Grad < cs[j].Grad
		})
		if len(cs) > k {
			cs = cs[:k]
		}
		out = append(out, IterationTop{Worker: key[0], Iter: key[1], Top: cs})
	}
	return out
}

// MaxResidual returns the largest |Sum() − Completion| across every
// decomposed gradient: the additivity invariant. It must hold within 1e-9
// on every transport — the PS path's push/pull spans and the collective
// path's chunked operations alike — and the attribution tests assert it on
// both.
func (r *Report) MaxResidual() float64 {
	worst := 0.0
	for _, c := range r.PerGrad {
		if d := math.Abs(c.Sum() - c.Completion); d > worst {
			worst = d
		}
	}
	return worst
}

// Mean averages the per-gradient components of one worker across
// iterations >= warmup (all gradients when warmup <= 0). The zero value is
// returned when nothing matches.
func (r *Report) Mean(worker, warmup int) Components {
	var sum Components
	n := 0
	for _, c := range r.PerGrad {
		if c.Worker != worker || c.Iter < warmup {
			continue
		}
		sum.Generation += c.Generation
		sum.PriorityWait += c.PriorityWait
		sum.BandwidthWait += c.BandwidthWait
		sum.Transmit += c.Transmit
		sum.Ack += c.Ack
		sum.Completion += c.Completion
		n++
	}
	if n == 0 {
		return Components{}
	}
	inv := 1 / float64(n)
	sum.Worker, sum.Iter, sum.Grad = worker, 0, 0
	sum.Generation *= inv
	sum.PriorityWait *= inv
	sum.BandwidthWait *= inv
	sum.Transmit *= inv
	sum.Ack *= inv
	sum.Completion *= inv
	return sum
}
