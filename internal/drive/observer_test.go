package drive_test

import (
	"fmt"
	"testing"

	"prophet/internal/core"
	"prophet/internal/drive"
	"prophet/internal/probe"
	"prophet/internal/schedule"
	"prophet/internal/strategy"
)

// eventCount tallies probe events (single-threaded test helper).
type eventCount struct {
	gen, start, complete int
}

func (c *eventCount) BeginIteration(worker, iter int, now float64) {}
func (c *eventCount) EndIteration(worker, iter int, now float64)   {}
func (c *eventCount) Generated(worker, grad int, now float64)      { c.gen++ }
func (c *eventCount) SendStart(worker, lane, seq, iter int, label string, bytes float64, ranges []probe.Range, now float64) {
	c.start++
}
func (c *eventCount) SendComplete(worker, lane, iter int, now float64)   { c.complete++ }
func (c *eventCount) PullAcked(worker, grad, iter int, now float64)      {}
func (c *eventCount) FaultInjected(worker int, kind string, now float64) {}

// logTx is an always-free transmitter that records dispatched labels and
// completes synchronously.
type logTx struct {
	drv    *drive.Driver
	labels []string
}

func (l *logTx) Busy(int) bool { return false }
func (l *logTx) Start(s *drive.Send) {
	l.labels = append(l.labels, s.Msg.Label)
	l.drv.Completed(s.Lane, 0)
}

// runFIFO drives three FIFO iterations and returns the dispatched labels.
func runFIFO(t *testing.T, obs probe.Observer) []string {
	t.Helper()
	sizes := []float64{3e6, 1e6, 2e6, 5e5}
	sched, err := strategy.New("fifo", strategy.Params{Sizes: sizes})
	if err != nil {
		t.Fatal(err)
	}
	tx := &logTx{}
	drv := drive.New(sched, tx, 1, len(sizes), nil)
	tx.drv = drv
	if obs != nil {
		drv.SetObserver(0, obs)
	}
	for iter := 0; iter < 3; iter++ {
		drv.BeginIteration(iter)
		for g := len(sizes) - 1; g >= 0; g-- {
			drv.Generate(g, float64(len(sizes)-g))
			drv.Pump(float64(len(sizes) - g))
		}
		drv.EndIteration(1.0)
	}
	return tx.labels
}

// TestObserverPassive asserts observation never changes what the driver
// dispatches, and that the event counts match the traffic.
func TestObserverPassive(t *testing.T) {
	bare := runFIFO(t, nil)
	c := &eventCount{}
	observed := runFIFO(t, c)
	if fmt.Sprint(bare) != fmt.Sprint(observed) {
		t.Errorf("dispatch changed under observation:\nbare:     %v\nobserved: %v", bare, observed)
	}
	// FIFO: one whole-gradient message per gradient per iteration.
	want := 3 * 4
	if c.gen != want || c.start != want || c.complete != want {
		t.Errorf("counts gen=%d start=%d complete=%d, want all %d",
			c.gen, c.start, c.complete, want)
	}
}

// stuckTx keeps lane 0 busy forever after its first dispatch and completes
// other lanes synchronously — forcing the cross-shard fetch gate to hold.
type stuckTx struct {
	drv   *drive.Driver
	stuck bool
}

func (s *stuckTx) Busy(lane int) bool { return lane == 0 && s.stuck }
func (s *stuckTx) Start(snd *drive.Send) {
	if snd.Lane == 0 {
		s.stuck = true
		return
	}
	s.drv.Completed(snd.Lane, 0)
}

// twoMsgSched emits msg1 = {g0→lane0}, then msg2 = {g1→lane0, g2→lane1}.
type twoMsgSched struct{ emitted int }

func (s *twoMsgSched) Name() string                              { return "two-msg" }
func (s *twoMsgSched) BeginIteration(int)                        {}
func (s *twoMsgSched) OnGenerated(int, float64)                  {}
func (s *twoMsgSched) OnSent(schedule.Message, float64, float64) {}
func (s *twoMsgSched) OnIterationEnd(float64)                    {}
func (s *twoMsgSched) Next(now float64) (schedule.Message, bool) {
	s.emitted++
	switch s.emitted {
	case 1:
		return schedule.Message{
			Pieces: []schedule.Piece{{Grad: 0, Bytes: 10, Last: true}},
			Bytes:  10, Label: "m1",
		}, true
	case 2:
		return schedule.Message{
			Pieces: []schedule.Piece{
				{Grad: 1, Bytes: 10, Last: true},
				{Grad: 2, Bytes: 10, Last: true},
			},
			Bytes: 20, Label: "m2",
		}, true
	}
	return schedule.Message{}, false
}

// TestFetchGateHoldsBehindWedgedLane wedges lane 0 and checks the driver
// holds the next fetch: m2's lane-0 sub-message is queued behind the stuck
// lane while lane 1 sits free, which is exactly the cross-shard priority
// gate, so the scheduler is not asked for a third message.
func TestFetchGateHoldsBehindWedgedLane(t *testing.T) {
	sched := &twoMsgSched{}
	tx := &stuckTx{}
	c := &eventCount{}
	shardOf := func(g int) int {
		if g == 2 {
			return 1
		}
		return 0
	}
	drv := drive.New(sched, tx, 2, 3, shardOf)
	tx.drv = drv
	drv.SetObserver(0, c)
	drv.BeginIteration(0)
	drv.Pump(0) // m1 dispatches and wedges lane 0; m2 splits across lanes
	if sched.emitted != 2 {
		t.Errorf("scheduler asked %d times, want 2: the gate let a fetch past a queued sub-message", sched.emitted)
	}
	// m1 started on lane 0; m2's lane-1 half started and completed; m2's
	// lane-0 half is still queued.
	if c.start != 2 || c.complete != 1 {
		t.Errorf("start=%d complete=%d, want 2, 1", c.start, c.complete)
	}
}

// preSched is a zero-allocation scheduler: messages and the release queue
// are prebuilt, so a steady-state driver loop over it isolates the driver's
// (and the probe emission sites') own allocation behaviour.
type preSched struct {
	msgs  []schedule.Message
	queue []int
	head  int
}

func newPreSched(sizes []float64) *preSched {
	s := &preSched{
		msgs:  make([]schedule.Message, len(sizes)),
		queue: make([]int, 0, len(sizes)),
	}
	for g, b := range sizes {
		s.msgs[g] = schedule.Message{
			Pieces: []schedule.Piece{{Grad: g, Bytes: b, Last: true}},
			Bytes:  b,
			Label:  "g",
		}
	}
	return s
}

func (s *preSched) Name() string                              { return "pre" }
func (s *preSched) BeginIteration(int)                        { s.queue = s.queue[:0]; s.head = 0 }
func (s *preSched) OnGenerated(g int, _ float64)              { s.queue = append(s.queue, g) }
func (s *preSched) OnSent(schedule.Message, float64, float64) {}
func (s *preSched) OnIterationEnd(float64)                    {}
func (s *preSched) Next(now float64) (schedule.Message, bool) {
	if s.head >= len(s.queue) {
		return schedule.Message{}, false
	}
	g := s.queue[s.head]
	s.head++
	return s.msgs[g], true
}

// freeTx completes every send synchronously and never blocks.
type freeTx struct{ drv *drive.Driver }

func (f *freeTx) Busy(int) bool       { return false }
func (f *freeTx) Start(s *drive.Send) { f.drv.Completed(s.Lane, 0) }

// TestNilObserverZeroAlloc pins the probe cost contract at the driver
// level: with a nil observer every emission site is one nil check, so a
// steady-state iteration allocates nothing. An attached observer whose
// callbacks don't allocate must not change that — the driver constructs no
// event objects, it passes scalars and a borrowed slice.
func TestNilObserverZeroAlloc(t *testing.T) {
	run := func(obs probe.Observer) float64 {
		sizes := []float64{3e6, 1e6, 2e6, 5e5, 8e5, 1.5e6}
		sched := newPreSched(sizes)
		tx := &freeTx{}
		drv := drive.New(sched, tx, 1, len(sizes), nil)
		tx.drv = drv
		if obs != nil {
			drv.SetObserver(0, obs)
		}
		iterate := func(iter int) {
			drv.BeginIteration(iter)
			for g := len(sizes) - 1; g >= 0; g-- {
				drv.Generate(g, 1.0)
				drv.Pump(1.0)
			}
			drv.EndIteration(1.0)
		}
		iterate(0) // warm the free lists
		iter := 1
		return testing.AllocsPerRun(100, func() {
			iterate(iter)
			iter++
		})
	}
	if got := run(nil); got != 0 {
		t.Errorf("nil observer: %v allocs per iteration, want 0", got)
	}
	if got := run(&eventCount{}); got != 0 {
		t.Errorf("counting observer: %v allocs per iteration, want 0", got)
	}
}

// TestSchedulerRowsZeroAlloc pins the warm message path over the real
// schedulers, which TestNilObserverZeroAlloc's prebuilt one never reaches:
// every Queue row and Prophet, on one lane and on four, through a
// synchronous transmitter. The driver copies each message's pieces into its
// own pooled slices, and the schedulers refill theirs once OnSent hands them
// back and reuse their rendered labels, so a warm iteration allocates
// nothing.
func TestSchedulerRowsZeroAlloc(t *testing.T) {
	// Sizes above the 4 MB partition and credit defaults, so p3 and
	// bytescheduler slice and fusion and bytescheduler span. Repeated to
	// 300 gradients they also cover indices of 256 and up, which Go boxes
	// into an interface only by allocating.
	six := []float64{9e6, 0.5e6, 2.5e6, 64e3, 5e6, 128e3}
	var many []float64
	for len(many) < 300 {
		many = append(many, six...)
	}
	for _, model := range []struct {
		suffix string
		sizes  []float64
	}{{"", six}, {"/300", many}} {
		sizes := model.sizes
		gen := make([]float64, len(sizes))
		for g := range gen {
			gen[g] = float64(len(sizes)-g) * 0.01
		}
		prof, err := core.NewProfile(gen, sizes, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"fifo", "fusion", "tictac", "p3", "bytescheduler", "prophet"} {
			for _, lanes := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%d%s", name, lanes, model.suffix), func(t *testing.T) {
					sched, err := strategy.New(name, strategy.Params{Sizes: sizes, Profile: prof})
					if err != nil {
						t.Fatal(err)
					}
					tx := &freeTx{}
					drv := drive.New(sched, tx, lanes, len(sizes), func(g int) int { return g % lanes })
					tx.drv = drv
					iterate := func(iter int) {
						drv.BeginIteration(iter)
						for g := len(sizes) - 1; g >= 0; g-- {
							drv.Generate(g, gen[g])
							drv.Pump(gen[g])
						}
						for g, b := range sizes {
							if drv.Offset(g) != b {
								t.Fatalf("iter %d: gradient %d shipped %v of %v bytes", iter, g, drv.Offset(g), b)
							}
						}
						drv.EndIteration(1.0)
					}
					iterate(0) // warm the free lists and the label caches
					iter := 1
					if got := testing.AllocsPerRun(50, func() {
						iterate(iter)
						iter++
					}); got != 0 {
						t.Errorf("%v allocs per warm iteration, want 0", got)
					}
				})
			}
		}
	}
}
