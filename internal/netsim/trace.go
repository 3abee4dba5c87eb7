// Package netsim models the network substrate of a DDNN training cluster:
// bandwidth traces, a serial link resource with per-message overhead (the
// paper's effective-bandwidth function f(s, B), Eq. 10), and the bandwidth
// monitor Prophet uses to track available bandwidth at runtime.
//
// All bandwidths are in bytes/second and all times in seconds.
package netsim

import (
	"fmt"
	"sort"

	"prophet/internal/sim"
)

// Gbps converts gigabits/second to bytes/second.
func Gbps(g float64) float64 { return g * 1e9 / 8 }

// Mbps converts megabits/second to bytes/second.
func Mbps(m float64) float64 { return m * 1e6 / 8 }

// Trace reports the raw link bandwidth available at a point in simulated
// time. Implementations must be piecewise constant between Breakpoints so
// that transfer completion times can be integrated exactly.
type Trace interface {
	// At returns the bandwidth in bytes/second at time t.
	At(t sim.Time) float64
	// NextChange returns the first time strictly after t at which the
	// bandwidth changes, or +Inf if it never changes again.
	NextChange(t sim.Time) sim.Time
}

// Const is a trace with a fixed bandwidth.
type Const float64

// At implements Trace.
func (c Const) At(sim.Time) float64 { return float64(c) }

// NextChange implements Trace.
func (c Const) NextChange(sim.Time) sim.Time { return inf }

const inf = 1e300

// Step is one segment of a piecewise-constant trace: bandwidth Rate applies
// from time From until the next step.
type Step struct {
	From sim.Time
	Rate float64 // bytes/sec
}

// StepTrace is a piecewise-constant bandwidth trace. Before the first step
// the first step's rate applies.
type StepTrace struct {
	steps []Step
}

// NewStepTrace builds a trace from steps, which must be non-empty. Steps are
// sorted by From; duplicate From values keep the last entry.
func NewStepTrace(steps ...Step) *StepTrace {
	if len(steps) == 0 {
		panic("netsim: NewStepTrace with no steps")
	}
	s := append([]Step(nil), steps...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].From < s[j].From })
	out := s[:0]
	for _, st := range s {
		if st.Rate < 0 {
			panic(fmt.Sprintf("netsim: negative rate %v", st.Rate))
		}
		if len(out) > 0 && out[len(out)-1].From == st.From {
			out[len(out)-1] = st
			continue
		}
		out = append(out, st)
	}
	return &StepTrace{steps: out}
}

// At implements Trace.
func (st *StepTrace) At(t sim.Time) float64 {
	// Find the last step with From <= t.
	i := sort.Search(len(st.steps), func(i int) bool { return st.steps[i].From > t })
	if i == 0 {
		return st.steps[0].Rate
	}
	return st.steps[i-1].Rate
}

// NextChange implements Trace.
func (st *StepTrace) NextChange(t sim.Time) sim.Time {
	i := sort.Search(len(st.steps), func(i int) bool { return st.steps[i].From > t })
	if i == len(st.steps) {
		return inf
	}
	return st.steps[i].From
}

// Scaled multiplies a base trace's bandwidth by a constant factor. Its
// main use is shard links: splitting one PS NIC across N shard instances
// gives each shard link Scale(base, 1/N) while preserving the base trace's
// shape (varying-bandwidth steps, contention periods).
type Scaled struct {
	Base   Trace
	Factor float64
}

// Scale wraps tr so its bandwidth is multiplied by factor at every instant.
func Scale(tr Trace, factor float64) Trace {
	if factor < 0 {
		panic(fmt.Sprintf("netsim: negative trace scale %v", factor))
	}
	return Scaled{Base: tr, Factor: factor}
}

// At implements Trace.
func (s Scaled) At(t sim.Time) float64 { return s.Factor * s.Base.At(t) }

// NextChange implements Trace.
func (s Scaled) NextChange(t sim.Time) sim.Time { return s.Base.NextChange(t) }

// TransferTime returns how long moving `bytes` takes starting at `start`
// under trace tr, excluding any per-message overhead, by integrating the
// piecewise-constant rate. It returns +Inf if the trace rate is zero forever
// after some point with bytes remaining.
func TransferTime(tr Trace, start sim.Time, bytes float64) sim.Time {
	if bytes < 0 {
		panic("netsim: negative bytes")
	}
	if bytes == 0 {
		return 0
	}
	t := start
	remaining := bytes
	for i := 0; i < 1_000_000; i++ {
		rate := tr.At(t)
		next := tr.NextChange(t)
		if rate > 0 {
			dt := remaining / rate
			if t+dt <= next {
				return t + dt - start
			}
			remaining -= rate * (next - t)
		}
		if next >= inf {
			return inf
		}
		t = next
	}
	return inf
}
