package core

import (
	"fmt"
	"math"
)

// WaitModel evaluates the paper's DDNN-training performance model
// (Sec. 3.1): given a transfer schedule t(i), it computes the parameter
// update times u(i) (Eq. 4), the forward-propagation completion times p(i)
// (Eq. 3), and the total GPU wait time T_wait (Eq. 2). It is used to
// compare schedules analytically (the optimization view) independent of the
// event-driven cluster simulator (the systems view).
type WaitModel struct {
	// Gen is c(i), gradient generation times.
	Gen []float64
	// Est is E(i), the estimated one-way transfer time per gradient (Eq. 5).
	Est []float64
	// FwdTime is T_fp(i), forward compute time per gradient segment.
	FwdTime []float64
}

// Eval computes the model for transfer start times t. It returns the GPU
// wait time T_wait and the per-gradient update and forward completion
// times. An error is reported if any t(i) < c(i) (Constraint 7).
func (m WaitModel) Eval(t []float64) (tWait float64, u, p []float64, err error) {
	n := len(m.Gen)
	if len(m.Est) != n || len(m.FwdTime) != n || len(t) != n {
		return 0, nil, nil, fmt.Errorf("core: WaitModel length mismatch")
	}
	u = make([]float64, n)
	p = make([]float64, n)
	for i := 0; i < n; i++ {
		if t[i] < m.Gen[i]-1e-12 {
			return 0, nil, nil, fmt.Errorf("core: t(%d)=%v before generation c=%v violates Constraint 7", i, t[i], m.Gen[i])
		}
		u[i] = t[i] + 2*m.Est[i] // Eq. 4: push then pull
	}
	// Eq. 3 and Eq. 2.
	p[0] = u[0] + m.FwdTime[0]
	tWait = u[0] - m.Gen[0]
	for i := 1; i < n; i++ {
		startReady := p[i-1]
		if u[i] > startReady {
			tWait += u[i] - p[i-1] // positive part of Eq. 2
			startReady = u[i]
		}
		p[i] = startReady + m.FwdTime[i]
	}
	return tWait, u, p, nil
}

// FIFOStarts returns the transfer schedule of the default framework: every
// gradient starts as soon as both it is generated and the link is free,
// in generation (FIFO) order — the behaviour of unscheduled MXNet.
func (m WaitModel) FIFOStarts() []float64 {
	n := len(m.Gen)
	t := make([]float64, n)
	free := 0.0
	// Generation order: index n-1 first.
	for i := n - 1; i >= 0; i-- {
		start := m.Gen[i]
		if free > start {
			start = free
		}
		t[i] = start
		free = start + m.Est[i]
	}
	return t
}

// PriorityStarts returns the schedule of an idealized priority scheduler
// with preemption granularity equal to whole gradients: when the link
// frees, the highest-priority generated-but-unsent gradient goes next.
func (m WaitModel) PriorityStarts() []float64 {
	n := len(m.Gen)
	t := make([]float64, n)
	sent := make([]bool, n)
	free := 0.0
	pickAvailable := func() int {
		for i := 0; i < n; i++ { // smallest index = highest priority
			if !sent[i] && m.Gen[i] <= free {
				return i
			}
		}
		return -1
	}
	for remaining := n; remaining > 0; remaining-- {
		best := pickAvailable()
		if best == -1 {
			// Link idles until the next gradient is generated.
			next := math.Inf(1)
			for i := 0; i < n; i++ {
				if !sent[i] && m.Gen[i] < next {
					next = m.Gen[i]
				}
			}
			free = next
			best = pickAvailable()
		}
		t[best] = free
		sent[best] = true
		free += m.Est[best]
	}
	return t
}
