package schedule

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// render spells one message as "label bytes grad:bytes[!]… stall=s", with !
// marking a piece that completes its gradient.
func render(m Message) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %g", m.Label, m.Bytes)
	for _, pc := range m.Pieces {
		fmt.Fprintf(&b, " %d:%g", pc.Grad, pc.Bytes)
		if pc.Last {
			b.WriteByte('!')
		}
	}
	fmt.Fprintf(&b, " stall=%g", m.Stall)
	return b.String()
}

// play feeds a scheduler one script — "g<N>" releases gradient N, "next"
// asks for one message, "drain" asks until nothing is eligible, "iter"
// begins the next iteration — and returns every message it emitted, with a
// "--" line per "drain" so an early stop shows.
func play(s Scheduler, script string) []string {
	var out []string
	iter := 0
	s.BeginIteration(iter)
	for _, op := range strings.Fields(script) {
		switch {
		case op == "iter":
			s.OnIterationEnd(1)
			iter++
			s.BeginIteration(iter)
		case op == "next":
			m, ok := s.Next(0)
			if !ok {
				out = append(out, "idle")
				continue
			}
			out = append(out, render(m))
			s.OnSent(m, 0, 1)
		case op == "drain":
			for {
				m, ok := s.Next(0)
				if !ok {
					break
				}
				out = append(out, render(m))
				s.OnSent(m, 0, 1)
			}
			out = append(out, "--")
		default:
			var g int
			if _, err := fmt.Sscanf(op, "g%d", &g); err != nil {
				panic("bad script op " + op)
			}
			s.OnGenerated(g, 0)
		}
	}
	return out
}

// TestBaselineRowsPinned pins, by value, what each of the five baseline rows
// emits for one release script. The literals were captured at 5b7d499, when
// the rows were five separate types, so they hold across the consolidation
// into one queue scheduler. The sizes and the 400-byte budget (fusion's
// threshold, p3's partition, bytescheduler's credit) put in one script: a
// tensor larger than the budget (g4), a fusion buffer landing exactly on its
// threshold (g1+g0, and g3+g2+g1 in the second iteration), slice boundaries
// mid-tensor with a higher-priority arrival in between (g4 under p3 and
// bytescheduler), and a second iteration released in one burst after the
// per-iteration reset. The last row is bytescheduler with its tuner on: the
// fourth iteration is the tuner's first probe, and its off-grid credit is
// the budget the messages are cut at.
func TestBaselineRowsPinned(t *testing.T) {
	sizes := []float64{300, 100, 250, 50, 700, 150}
	const script = "g5 g4 next g3 g2 next next g1 g0 drain iter g5 g4 g3 g2 g1 g0 drain"
	tuned := NewByteScheduler(sizes, 400)
	tuned.EnableTuning(100, 1600, 42)
	for _, row := range []struct {
		s      Scheduler
		script string
		want   []string
	}{
		{NewFIFO(sizes), script, []string{
			"g5 150 5:150! stall=0",
			"g4 700 4:700! stall=0",
			"g3 50 3:50! stall=0",
			"g2 250 2:250! stall=0",
			"g1 100 1:100! stall=0",
			"g0 300 0:300! stall=0",
			"--",
			"g5 150 5:150! stall=0",
			"g4 700 4:700! stall=0",
			"g3 50 3:50! stall=0",
			"g2 250 2:250! stall=0",
			"g1 100 1:100! stall=0",
			"g0 300 0:300! stall=0",
			"--",
		}},
		{NewFusion(sizes, 400), script, []string{
			"fuse[5#1] 150 5:150! stall=0",
			"fuse[4#1] 700 4:700! stall=0",
			"fuse[3#2] 300 3:50! 2:250! stall=0",
			"fuse[1#2] 400 1:100! 0:300! stall=0",
			"--",
			"fuse[5#1] 150 5:150! stall=0",
			"fuse[4#1] 700 4:700! stall=0",
			"fuse[3#3] 400 3:50! 2:250! 1:100! stall=0",
			"fuse[0#1] 300 0:300! stall=0",
			"--",
		}},
		{NewTicTac(sizes), script, []string{
			"op[g4] 700 4:700! stall=0.0002",
			"op[g2] 250 2:250! stall=0.0002",
			"op[g3] 50 3:50! stall=0.0002",
			"op[g0] 300 0:300! stall=0.0002",
			"op[g1] 100 1:100! stall=0.0002",
			"op[g5] 150 5:150! stall=0.0002",
			"--",
			"op[g0] 300 0:300! stall=0.0002",
			"op[g1] 100 1:100! stall=0.0002",
			"op[g2] 250 2:250! stall=0.0002",
			"op[g3] 50 3:50! stall=0.0002",
			"op[g4] 700 4:700! stall=0.0002",
			"op[g5] 150 5:150! stall=0.0002",
			"--",
		}},
		{NewP3(sizes, 400), script, []string{
			"g4/part 400 4:400 stall=0.0005",
			"g2/part 250 2:250! stall=0.0005",
			"g3/part 50 3:50! stall=0.0005",
			"g0/part 300 0:300! stall=0.0005",
			"g1/part 100 1:100! stall=0.0005",
			"g4/part 300 4:300! stall=0.0005",
			"g5/part 150 5:150! stall=0.0005",
			"--",
			"g0/part 300 0:300! stall=0.0005",
			"g1/part 100 1:100! stall=0.0005",
			"g2/part 250 2:250! stall=0.0005",
			"g3/part 50 3:50! stall=0.0005",
			"g4/part 400 4:400 stall=0.0005",
			"g4/part 300 4:300! stall=0.0005",
			"g5/part 150 5:150! stall=0.0005",
			"--",
		}},
		{NewByteScheduler(sizes, 400), script, []string{
			"credit[g4+0] 400 4:400 stall=0.005",
			"credit[g2+2] 400 2:250! 3:50! 4:100 stall=0.005",
			"credit[g4+1] 350 4:200! 5:150! stall=0.005",
			"credit[g0+1] 400 0:300! 1:100! stall=0.005",
			"--",
			"credit[g0+1] 400 0:300! 1:100! stall=0.005",
			"credit[g2+2] 400 2:250! 3:50! 4:100 stall=0.005",
			"credit[g4+0] 400 4:400 stall=0.005",
			"credit[g4+1] 350 4:200! 5:150! stall=0.005",
			"--",
		}},
		{tuned, "iter iter iter g4 g5 drain", []string{
			"credit[g4+0] 663.9641571507681 4:663.9641571507681 stall=0.005",
			"credit[g4+1] 186.03584284923193 4:36.035842849231926! 5:150! stall=0.005",
			"--",
		}},
	} {
		got := play(row.s, row.script)
		if !reflect.DeepEqual(got, row.want) {
			t.Errorf("%s:\n got  %q\n want %q", row.s.Name(), got, row.want)
		}
	}
}

// TestBaselineRowsOddInputs pins what Queue's doc comment promises for the
// two inputs no driver produces and the five separate types disagreed on: a
// gradient released twice while queued is sent once (fifo and fusion used to
// queue it twice), and a zero-byte tensor completes (p3 and bytescheduler
// used to drop it silently).
func TestBaselineRowsOddInputs(t *testing.T) {
	sizes := []float64{100, 0, 50}
	for _, s := range []Scheduler{
		NewFIFO(sizes), NewFusion(sizes, 120), NewTicTac(sizes), NewP3(sizes, 40), NewByteScheduler(sizes, 120),
	} {
		s.BeginIteration(0)
		for _, g := range []int{2, 2, 1, 0, 0} {
			s.OnGenerated(g, 0)
		}
		bytes, completed := make([]float64, len(sizes)), make([]int, len(sizes))
		for {
			m, ok := s.Next(0)
			if !ok {
				break
			}
			for _, pc := range m.Pieces {
				bytes[pc.Grad] += pc.Bytes
				if pc.Last {
					completed[pc.Grad]++
				}
			}
		}
		if !reflect.DeepEqual(bytes, sizes) || !reflect.DeepEqual(completed, []int{1, 1, 1}) {
			t.Errorf("%s: sent %v bytes and completed %v; want %v bytes, each gradient once", s.Name(), bytes, completed, sizes)
		}
	}
}
