package drive_test

import (
	"fmt"
	"math"
	"testing"

	"prophet/internal/core"
	"prophet/internal/drive"
	"prophet/internal/strategy"
)

// confWorkers is the ring size the conformance table runs the collective
// backends across.
const confWorkers = 4

// confTx is an always-free transmitter that audits every send against the
// scheduler contract: no byte of a gradient may ship before the driver was
// told the gradient was generated, offsets must be contiguous, and each
// gradient must be completed by exactly one Last piece. With a collective
// backend attached it additionally audits the wire shape of each dispatch:
// the chunk schedule has exactly Steps(W) entries summing to the backend's
// per-link wire volume.
type confTx struct {
	t         *testing.T
	drv       *drive.Driver
	be        drive.Backend
	sizes     []float64
	generated []bool
	sent      []float64 // bytes shipped per gradient this iteration
	lastSeen  []int     // Last pieces per gradient this iteration
	sends     int
}

func (c *confTx) beginIter() {
	for i := range c.generated {
		c.generated[i] = false
		c.sent[i] = 0
		c.lastSeen[i] = 0
	}
}

func (c *confTx) Busy(int) bool { return false }

func (c *confTx) Start(s *drive.Send) {
	c.sends++
	for _, rg := range s.Ranges {
		g := rg.Grad
		if !c.generated[g] {
			c.t.Errorf("gradient %d shipped before OnGenerated", g)
		}
		if rg.Bytes <= 0 {
			c.t.Errorf("gradient %d: non-positive range %v bytes", g, rg.Bytes)
		}
		if math.Abs(rg.Off-c.sent[g]) > 1e-6 {
			c.t.Errorf("gradient %d: range offset %v, want cumulative %v", g, rg.Off, c.sent[g])
		}
		c.sent[g] += rg.Bytes
		if c.sent[g] > c.sizes[g]+1e-6 {
			c.t.Errorf("gradient %d: %v bytes shipped, size is %v", g, c.sent[g], c.sizes[g])
		}
		if rg.Last {
			c.lastSeen[g]++
			if math.Abs(c.sent[g]-c.sizes[g]) > 1e-6 {
				c.t.Errorf("gradient %d: Last piece at %v of %v bytes", g, c.sent[g], c.sizes[g])
			}
		}
	}
	c.auditChunks(s)
	c.drv.Completed(s.Lane, 0)
}

// auditChunks checks the collective wire shape of one dispatched message.
func (c *confTx) auditChunks(s *drive.Send) {
	if c.be == nil {
		return
	}
	chunks := c.be.ChunkBytes(s.Msg.Bytes, confWorkers, nil)
	if len(chunks) != c.be.Steps(confWorkers) {
		c.t.Errorf("%s: %d chunks for %d steps", c.be.Name(), len(chunks), c.be.Steps(confWorkers))
	}
	wantWire := 0.0
	for _, per := range c.be.ChunkBytes(1, confWorkers, nil) {
		wantWire += per * s.Msg.Bytes
	}
	wire := 0.0
	for _, ch := range chunks {
		if ch <= 0 {
			c.t.Errorf("%s: non-positive chunk %v", c.be.Name(), ch)
		}
		wire += ch
	}
	if math.Abs(wire-wantWire) > 1e-6 {
		c.t.Errorf("%s: chunk schedule moves %v, want %v", c.be.Name(), wire, wantWire)
	}
}

// TestSchedulerConformance drives every (strategy × transport) pair through
// the shared driver and checks the contract both paths depend on: nothing
// ships before its gradient is generated, every gradient is completed
// exactly once (via a Last piece, with contiguous offsets summing to its
// size), a single Pump after the final release drains the whole iteration —
// i.e. Next returns ok=false only when nothing is eligible — and on the
// collective backends every dispatch maps to a well-formed chunk schedule.
func TestSchedulerConformance(t *testing.T) {
	// Varied sizes, including ones above the 4 MB partition/credit defaults
	// so P3 and ByteScheduler actually slice.
	sizes := []float64{9e6, 0.5e6, 2.5e6, 64e3, 5e6, 128e3}
	n := len(sizes)
	gen := make([]float64, n)
	for i := range gen {
		gen[i] = float64(n-i) * 0.01
	}
	prof, err := core.NewProfile(gen, sizes, 1e-6)
	if err != nil {
		t.Fatal(err)
	}

	for _, transport := range drive.BackendNames() {
		be, err := drive.BackendByName(transport)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range strategy.Names() {
			t.Run(transport+"/"+name, func(t *testing.T) {
				sched, err := strategy.New(name, strategy.Params{
					Sizes: sizes, Seed: 7, Profile: prof,
				})
				if err != nil {
					t.Fatal(err)
				}
				tx := &confTx{
					t:         t,
					sizes:     sizes,
					generated: make([]bool, n),
					sent:      make([]float64, n),
					lastSeen:  make([]int, n),
				}
				if be.Name() != "ps" {
					tx.be = be
				}
				drv := drive.New(sched, tx, 1, n, nil)
				tx.drv = drv
				drv.SetRecording(true)

				for iter := 0; iter < 3; iter++ {
					tx.beginIter()
					drv.BeginIteration(iter)
					if drv.Pump(0); tx.sends != 0 {
						t.Fatalf("iter %d: %d sends before any gradient was generated", iter, tx.sends)
					}
					// Release in backward emission order (descending), in two
					// bursts: the audit in Start catches any strategy that
					// emits a not-yet-generated gradient between them.
					now := 0.0
					for g := n - 1; g >= 0; g-- {
						now = gen[g]
						tx.generated[g] = true
						drv.Generate(g, now)
						if g == n/2 {
							drv.Pump(now)
						}
					}
					drv.Pump(now)
					for g := 0; g < n; g++ {
						if tx.lastSeen[g] != 1 {
							t.Errorf("iter %d: gradient %d completed %d times, want 1", iter, g, tx.lastSeen[g])
						}
						if math.Abs(tx.sent[g]-sizes[g]) > 1e-6 {
							t.Errorf("iter %d: gradient %d shipped %v of %v bytes", iter, g, tx.sent[g], sizes[g])
						}
					}
					if _, ok := sched.Next(now); ok {
						t.Fatalf("iter %d: Next returned a message after the iteration drained", iter)
					}
					tx.sends = 0
					drv.EndIteration(1.0)
				}

				// The decision log covers all iterations and completes every
				// gradient once per iteration.
				completes := map[string]int{}
				for _, r := range drv.Records() {
					for _, g := range r.Completes {
						completes[fmt.Sprintf("%d/%d", r.Iter, g)]++
					}
				}
				for iter := 0; iter < 3; iter++ {
					for g := 0; g < n; g++ {
						if c := completes[fmt.Sprintf("%d/%d", iter, g)]; c != 1 {
							t.Errorf("record log: iter %d gradient %d completed %d times", iter, g, c)
						}
					}
				}
			})
		}
	}
}
