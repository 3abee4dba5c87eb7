package ps

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"prophet/internal/transport"
)

// TestCloseDuringInflightPullFailsWaiter pins the Close/readLoop shutdown
// ordering: a Close racing an in-flight pull must deterministically fail
// the waiter — never strand it, never let it observe a half-closed client.
func TestCloseDuringInflightPullFailsWaiter(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	for i := 0; i < rounds; i++ {
		a, b := transport.Pipe(0, 0)
		// Server half: drain bytes, never respond — the pull stays in
		// flight until the close resolves it.
		go io.Copy(io.Discard, b)
		c := NewClient(a)

		type pulled struct {
			ch  <-chan PullResult
			err error
		}
		started := make(chan pulled, 1)
		go func() {
			ch, err := c.PullAsync(0, 0)
			started <- pulled{ch, err}
		}()
		go c.Close()

		p := <-started
		if p.err != nil {
			// Close won the race outright: the pull must have failed with
			// a closed-or-lost error, not something else.
			if !errors.Is(p.err, net.ErrClosed) && !errors.Is(p.err, ErrConnLost) {
				t.Fatalf("round %d: pull rejected with %v", i, p.err)
			}
			b.Close()
			continue
		}
		select {
		case r := <-p.ch:
			if r.Err == nil {
				t.Fatalf("round %d: in-flight pull resolved without error across Close", i)
			}
			if !errors.Is(r.Err, ErrConnLost) {
				t.Fatalf("round %d: in-flight pull failed with %v, want ErrConnLost", i, r.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: in-flight pull stranded by Close", i)
		}
		b.Close()
	}
}
