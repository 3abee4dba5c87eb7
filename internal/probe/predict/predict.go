// Package predict is the prediction audit: it scores Prophet's own
// predictability. The paper's premise is that DNN communication is
// predictable enough to schedule ahead of time (profiled s(i)/c(i) plus
// monitored bandwidth, §III); this package measures how close those plans
// come to what the wire actually did, and raises an alarm when they stop
// being close — the drift signal a re-tuning hook (ROADMAP item 10(b))
// consumes.
//
// # Data flow
//
// The Auditor is the one audit path, live or simulated: attach it as the
// run's observer, or inside probe.NewMulti, then Flush and Report once the
// run has drained. Its presence is what switches prediction on — a run
// predicts only when its observer is a probe.PlanObserver. The drive layer
// then gets the wire's cost model, drive.WireCost, and announces every sub-message's planned
// wire window through probe.PlanObserver at decision time. The transports
// announce the observed window through the ordinary SendStart/SendComplete
// events. The Auditor subscribes to both streams and joins them on
// (worker, lane, seq, iter) — the sequence numbers live engines assign
// reset per iteration, so iter is part of the key. Each join yields a
// Residual; each EndIteration folds that worker's residuals into an
// IterationScore and updates its EWMA drift score; a score crossing the
// threshold after warmup raises an Alarm.
//
// # Residual definitions
//
// For one joined sub-message with planned window [ps, pe) and observed
// window [os, oe):
//
//	StartErr = os − ps          (scheduling error: the plan fired late/early)
//	EndErr   = oe − pe          (cumulative error at completion)
//	AbsErr   = |(oe−os) − (pe−ps)|   (transmit-duration error, seconds)
//	RelErr   = max(|StartErr|, |EndErr|) / max(pe−ps, ε)
//
// RelErr is window agreement — the quantity the simulator invariant pins
// to 1e-6 — while AbsErr isolates transmit-time divergence from
// scheduling slack and feeds the drift score.
//
// # Drift score and alarms
//
// Per (worker, iteration), divergence is the byte-time-weighted transmit
// error Div = Σ AbsErr / max(Σ planned duration, ε); the worker's drift
// score is its EWMA, score ← α·Div + (1−α)·score, with α = 0.3 fixed (the
// first scored iteration seeds it). After one warm-up iteration per
// worker — the first pays cold caches and connection ramp on the live
// path — a score above Threshold raises an Alarm. Alarms reach
// callers three ways: synchronously through the OnAlarm callback (the
// re-tuning hook), in Report().Alarms, and counted as predict_alarms in
// Metrics. The alarm re-arms
// every iteration — a persistent fault alarms persistently, and recovery
// is visible as the score decaying back under threshold.
//
// The audit scores only the wire windows it can join; the generation and
// ack legs around them are package attrib's decomposition, not repeated
// here.
package predict

import (
	"math"
	"sort"
	"sync"

	"prophet/internal/probe"
)

const (
	// eps floors denominators so zero-length plans (W ≤ 1 collectives)
	// score zero error instead of dividing by zero.
	eps = 1e-12
	// alpha is the drift score's EWMA smoothing factor.
	alpha = 0.3
	// warmup is how many scored iterations per worker pass before alarms
	// arm.
	warmup = 1
)

// Options configures an audit.
type Options struct {
	// Threshold is the drift score above which an alarm fires; default
	// 0.5 (predictions off by 50% of planned transmit time).
	Threshold float64
	// OnAlarm, when non-nil, is invoked synchronously for every alarm —
	// the hook an autoconf re-tuner plugs into.
	OnAlarm func(Alarm)
	// Metrics, when non-nil, receives predict_* counters and histograms.
	Metrics *probe.Metrics
}

// Residual is one joined planned-vs-observed sub-message window.
type Residual struct {
	Worker, Lane, Seq, Iter int
	Bytes                   float64
	PredStart, PredEnd      float64
	ObsStart, ObsEnd        float64
	StartErr, EndErr        float64 // observed − predicted, seconds
	AbsErr                  float64 // |observed − predicted| duration, seconds
	RelErr                  float64 // window disagreement, fraction of planned duration
}

// IterationScore is one worker-iteration's audit summary.
type IterationScore struct {
	Worker, Iter int
	// Joined counts residuals folded in; Unjoined counts planned windows
	// that never met a completion this iteration.
	Joined, Unjoined int
	// PredTransmit and ObsTransmit are the summed planned and observed
	// sub-message durations (seconds).
	PredTransmit, ObsTransmit float64
	// StartErr is the mean |scheduling error| across joined sends.
	StartErr float64
	// Div is this iteration's divergence; Drift the worker's EWMA score
	// after folding it in; Alarmed whether that crossing raised an alarm.
	Div, Drift float64
	Alarmed    bool
}

// Alarm is one drift-threshold crossing.
type Alarm struct {
	Worker, Iter     int
	Score, Threshold float64
	Time             float64
}

type joinKey struct{ worker, lane, seq, iter int }

type laneKey struct{ worker, lane int }

type plannedEntry struct {
	bytes      float64
	start, end float64
}

type openObs struct {
	seq, iter int
	start     float64
	bytes     float64
}

type wiKey struct{ worker, iter int }

type iterAccum struct {
	joined, unjoined int
	sumAbs, sumPred  float64
	sumObs           float64
	sumStartAbs      float64
	// last is the latest iteration begin, gradient release, completed
	// send or pull ack seen: the alarm time Flush falls back to.
	last            float64
	plannedThisIter int
}

// Auditor joins planned windows against observed spans online. It
// implements probe.Observer and probe.PlanObserver, and originates alarms.
// Compose it into a probe.Multi alongside the recorder; it is
// mutex-protected and safe for the live path's concurrent emitters.
type Auditor struct {
	opts Options

	mu        sync.Mutex
	curIter   map[int]int
	planned   map[joinKey]plannedEntry
	open      map[laneKey]openObs
	accum     map[wiKey]*iterAccum
	ewma      map[int]float64
	warm      map[int]int
	residuals []Residual
	scores    []IterationScore
	alarms    []Alarm

	cPlanned, cJoined, cAlarms *probe.Counter
	hRelErr, hDrift            *probe.Histogram
}

// NewAuditor returns an Auditor with opts (zero fields take defaults).
func NewAuditor(opts Options) *Auditor {
	if opts.Threshold <= 0 {
		opts.Threshold = 0.5
	}
	return &Auditor{
		opts:     opts,
		curIter:  make(map[int]int),
		planned:  make(map[joinKey]plannedEntry),
		open:     make(map[laneKey]openObs),
		accum:    make(map[wiKey]*iterAccum),
		ewma:     make(map[int]float64),
		warm:     make(map[int]int),
		cPlanned: opts.Metrics.Counter("predict_planned"),
		cJoined:  opts.Metrics.Counter("predict_joined"),
		cAlarms:  opts.Metrics.Counter("predict_alarms"),
		hRelErr:  opts.Metrics.Histogram("predict_rel_err_pct"),
		hDrift:   opts.Metrics.Histogram("predict_drift_pct"),
	}
}

func (a *Auditor) acc(w, iter int) *iterAccum {
	k := wiKey{w, iter}
	ac, ok := a.accum[k]
	if !ok {
		ac = &iterAccum{}
		a.accum[k] = ac
	}
	return ac
}

// BeginIteration implements probe.Observer.
func (a *Auditor) BeginIteration(worker, iter int, now float64) {
	a.mu.Lock()
	a.curIter[worker] = iter
	ac := a.acc(worker, iter)
	ac.last = max(ac.last, now)
	a.mu.Unlock()
}

// Generated implements probe.Observer.
func (a *Auditor) Generated(worker, grad int, now float64) {
	a.mu.Lock()
	ac := a.acc(worker, a.curIter[worker])
	ac.last = max(ac.last, now)
	a.mu.Unlock()
}

// SendPlanned implements probe.PlanObserver.
func (a *Auditor) SendPlanned(worker, lane, seq, iter int, bytes float64, start, end float64) {
	a.mu.Lock()
	a.planned[joinKey{worker, lane, seq, iter}] = plannedEntry{
		bytes: bytes, start: start, end: end,
	}
	ac := a.acc(worker, iter)
	ac.plannedThisIter++
	ac.sumPred += end - start
	a.mu.Unlock()
	a.cPlanned.Inc()
}

// SendStart implements probe.Observer.
func (a *Auditor) SendStart(worker, lane, seq, iter int, label string, bytes float64, ranges []probe.Range, now float64) {
	a.mu.Lock()
	a.open[laneKey{worker, lane}] = openObs{seq: seq, iter: iter, start: now, bytes: bytes}
	a.mu.Unlock()
}

// SendComplete implements probe.Observer: the join point.
func (a *Auditor) SendComplete(worker, lane, iter int, now float64) {
	a.mu.Lock()
	lk := laneKey{worker, lane}
	o, ok := a.open[lk]
	if !ok {
		a.mu.Unlock()
		return
	}
	delete(a.open, lk)
	ac := a.acc(worker, o.iter)
	ac.last = max(ac.last, now)
	ac.sumObs += now - o.start
	jk := joinKey{worker, lane, o.seq, o.iter}
	p, ok := a.planned[jk]
	if !ok {
		a.mu.Unlock()
		return
	}
	delete(a.planned, jk)
	r := Residual{
		Worker: worker, Lane: lane, Seq: o.seq, Iter: o.iter,
		Bytes:     p.bytes,
		PredStart: p.start, PredEnd: p.end,
		ObsStart: o.start, ObsEnd: now,
	}
	r.StartErr = o.start - p.start
	r.EndErr = now - p.end
	predDur := p.end - p.start
	obsDur := now - o.start
	r.AbsErr = math.Abs(obsDur - predDur)
	r.RelErr = max(math.Abs(r.StartErr), math.Abs(r.EndErr)) / max(predDur, eps)
	a.residuals = append(a.residuals, r)
	ac.joined++
	ac.sumAbs += r.AbsErr
	ac.sumStartAbs += math.Abs(r.StartErr)
	a.mu.Unlock()
	a.cJoined.Inc()
	a.hRelErr.Observe(r.RelErr * 100)
}

// PullAcked implements probe.Observer.
func (a *Auditor) PullAcked(worker, grad, iter int, now float64) {
	a.mu.Lock()
	ac := a.acc(worker, iter)
	ac.last = max(ac.last, now)
	a.mu.Unlock()
}

// FaultInjected implements probe.Observer (ignored: faults show up as
// drift, which is the point).
func (a *Auditor) FaultInjected(worker int, kind string, now float64) {}

// EndIteration implements probe.Observer: the scoring trigger.
//
// EndIteration marks the end of an iteration's *compute*; its pushes may
// still be draining (the sim's uplink keeps transmitting through the next
// forward pass). What the BSP barrier does guarantee is that once
// iteration i's compute ends, iteration i−1's communication has fully
// drained — forward i was gated on i−1's pulls, which required i−1's
// pushes. So EndIteration(i) finalizes every earlier iteration of the
// worker, and the just-ended iteration stays open until the next
// EndIteration (or Flush) — scores and alarms lag one iteration, in
// exchange for never scoring a half-drained iteration.
func (a *Auditor) EndIteration(worker, iter int, now float64) {
	a.mu.Lock()
	var emits []scoreEmit
	for _, k := range a.pendingBeforeLocked(worker, iter) {
		emits = append(emits, a.finalizeLocked(k, now))
	}
	a.mu.Unlock()
	a.emit(emits)
}

// Flush finalizes every still-open iteration accumulator — call it once
// the run has drained, before the final Report. Alarm times fall back to
// each iteration's last recorded event.
func (a *Auditor) Flush() {
	a.mu.Lock()
	keys := make([]wiKey, 0, len(a.accum))
	for k := range a.accum {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].worker != keys[j].worker {
			return keys[i].worker < keys[j].worker
		}
		return keys[i].iter < keys[j].iter
	})
	var emits []scoreEmit
	for _, k := range keys {
		emits = append(emits, a.finalizeLocked(k, a.accum[k].last))
	}
	a.mu.Unlock()
	a.emit(emits)
}

// pendingBeforeLocked returns worker's open accumulator keys with
// iteration < iter, oldest first. Callers hold a.mu.
func (a *Auditor) pendingBeforeLocked(worker, iter int) []wiKey {
	var keys []wiKey
	for k := range a.accum {
		if k.worker == worker && k.iter < iter {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].iter < keys[j].iter })
	return keys
}

// scoreEmit carries one finalized score's metric/callback work out of the
// lock.
type scoreEmit struct {
	drift float64
	alarm *Alarm
}

// finalizeLocked folds accumulator k into an IterationScore, updates the
// worker's EWMA drift score, and raises an alarm on a threshold crossing
// past warmup. Callers hold a.mu.
func (a *Auditor) finalizeLocked(k wiKey, now float64) scoreEmit {
	ac := a.accum[k]
	delete(a.accum, k)
	ac.unjoined = ac.plannedThisIter - ac.joined
	sc := IterationScore{
		Worker: k.worker, Iter: k.iter,
		Joined: ac.joined, Unjoined: ac.unjoined,
		PredTransmit: ac.sumPred, ObsTransmit: ac.sumObs,
	}
	if ac.joined > 0 {
		sc.StartErr = ac.sumStartAbs / float64(ac.joined)
	}
	var alarm *Alarm
	if ac.joined > 0 {
		sc.Div = ac.sumAbs / max(ac.sumPred, eps)
		prev, seeded := a.ewma[k.worker]
		if !seeded {
			sc.Drift = sc.Div
		} else {
			sc.Drift = alpha*sc.Div + (1-alpha)*prev
		}
		a.ewma[k.worker] = sc.Drift
		a.warm[k.worker]++
		if a.warm[k.worker] > warmup && sc.Drift > a.opts.Threshold {
			sc.Alarmed = true
			al := Alarm{
				Worker: k.worker, Iter: k.iter,
				Score: sc.Drift, Threshold: a.opts.Threshold, Time: now,
			}
			a.alarms = append(a.alarms, al)
			alarm = &al
		}
	} else if prev, ok := a.ewma[k.worker]; ok {
		sc.Drift = prev
	}
	a.scores = append(a.scores, sc)
	return scoreEmit{drift: sc.Drift, alarm: alarm}
}

// emit performs the metric and callback side of finalized scores outside
// the auditor lock.
func (a *Auditor) emit(emits []scoreEmit) {
	for _, e := range emits {
		a.hDrift.Observe(e.drift * 100)
		if e.alarm == nil {
			continue
		}
		a.cAlarms.Inc()
		if a.opts.OnAlarm != nil {
			a.opts.OnAlarm(*e.alarm)
		}
	}
}
