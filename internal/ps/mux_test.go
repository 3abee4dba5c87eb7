package ps

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"prophet/internal/transport"
)

// newMuxCluster starts a server with `workers` logical workers behind ONE
// multiplexed connection and returns the client group plus a shutdown
// func that reports ServeMux's error.
func newMuxCluster(t *testing.T, workers int) (*Server, *MuxGroup, func() error) {
	t.Helper()
	s := NewServer(workers)
	a, b := transport.Pipe(0, 0)
	ids := make([]int, workers)
	for w := range ids {
		ids[w] = w
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ServeMux(b, ids) }()
	g := NewMuxGroup(a, workers, MuxGroupOptions{})
	return s, g, func() error {
		g.Close()
		return <-serveErr
	}
}

// TestPushPullBatchInterleaved drives multi-tensor batches from every
// worker at once: one buffered write carries a worker's pushes and pull
// requests, batches of different workers interleave on the server, and
// every pull resolves to the mean.
func TestPushPullBatchInterleaved(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			const workers, tensors, iters = 4, 3, 5
			_, links, shutdown := newTopology(t, workers, topo.shared)

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					link := links[w]
					idx := []int{0, 1, 2}
					for it := 0; it < iters; it++ {
						chans := make([]<-chan PullResult, tensors)
						err := link.PushPullBatch(it, idx,
							func(tr int) []float64 { return []float64{float64(w + tr + it), float64(tr)} },
							func(tr int, ch <-chan PullResult) { chans[tr] = ch })
						if err != nil {
							t.Errorf("worker %d iter %d: %v", w, it, err)
							return
						}
						for tr, ch := range chans {
							r := <-ch
							if r.Err != nil {
								t.Errorf("worker %d iter %d tensor %d: %v", w, it, tr, r.Err)
								return
							}
							// mean over w of (w + tr + it) = 1.5 + tr + it
							if want := 1.5 + float64(tr+it); len(r.Data) != 2 || r.Data[0] != want || r.Data[1] != float64(tr) {
								t.Errorf("worker %d iter %d tensor %d: got %v want [%v %v]", w, it, tr, r.Data, want, tr)
							}
							link.Recycle(r.Data)
						}
					}
				}(w)
			}
			wg.Wait()
			if err := shutdown(); err != nil {
				t.Fatalf("serve: %v", err)
			}
		})
	}
}

// TestMuxGoroutineBudget pins the scaling property the mux exists for: the
// goroutine cost of a cluster is per-connection, not per-worker — a 32×
// worker increase adds zero goroutines.
func TestMuxGoroutineBudget(t *testing.T) {
	// settled is the goroutine count (over base) once it has stopped falling:
	// goroutines that have signalled their exit but not yet left — an earlier
	// test's, or the round's own below — would otherwise be counted on one
	// side of a difference only.
	settled := func(base int) int {
		n := runtime.NumGoroutine() - base
		for i := 0; i < 50; i++ {
			time.Sleep(time.Millisecond)
			if m := runtime.NumGoroutine() - base; m < n {
				n = m
			}
		}
		return n
	}
	measure := func(workers int) int {
		before := settled(0)
		_, g, shutdown := newMuxCluster(t, workers)
		// One round so everything is spun up.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				link := g.Worker(w)
				link.Push(0, 0, []float64{1})
				if data, err := link.Pull(0, 0); err == nil {
					link.Recycle(data)
				}
			}(w)
		}
		wg.Wait()
		during := settled(before)
		if err := shutdown(); err != nil {
			t.Fatalf("serve (%d workers): %v", workers, err)
		}
		return during
	}
	small, big := measure(2), measure(64)
	if big > small {
		t.Fatalf("goroutines grew with workers: %d at W=2, %d at W=64", small, big)
	}
	// Three per pipe: the ServeMux caller's demux loop + its responder
	// (server), one demux goroutine (client); one of slack.
	if small > 4 {
		t.Fatalf("mux cluster costs %d goroutines, want ≤ 4", small)
	}
}

func TestMuxGroupCloseFailsPending(t *testing.T) {
	_, g, shutdown := newMuxCluster(t, 2)
	// Worker 0 pulls a slot that can never aggregate (worker 1 never
	// pushes), then the group closes underneath it.
	link := g.Worker(0)
	if err := link.Push(0, 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	ch, err := link.PullAsync(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = shutdown() // closes the conn with the pull in flight
	select {
	case r := <-ch:
		if r.Err == nil {
			t.Fatal("pending pull resolved without error across close")
		}
		if !errors.Is(r.Err, ErrConnLost) {
			t.Fatalf("pending pull failed with %v, want ErrConnLost", r.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending pull hung across close")
	}
	if _, err := link.PullAsync(0, 1); err == nil {
		t.Fatal("pull after close succeeded")
	}
}

// TestMuxConnLossUnblocksParkedSender pins the abort path: a sender parked
// in a write nobody reads only wakes on a close, so when the connection
// dies under it the push must fail and the group's readLoop must latch the
// loss — otherwise a worker blocked mid-push hangs forever (emu.Run's abort
// closes raw conns and then waits for every worker).
func TestMuxConnLossUnblocksParkedSender(t *testing.T) {
	a, b := net.Pipe() // a rendezvous: a write parks until the peer reads it
	g := NewMuxGroup(a, 1, MuxGroupOptions{})
	defer g.Close()

	link := g.Worker(0)
	blocked := make(chan error, 1)
	go func() { blocked <- link.Push(1, 0, make([]float64, 8<<10)) }() // the peer never reads
	select {
	case err := <-blocked:
		t.Fatalf("push into an unread pipe did not block (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}

	b.Close() // the connection dies while the sender is parked
	select {
	case err := <-blocked:
		if err == nil {
			t.Fatal("parked push succeeded after connection loss")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked sender hung after connection loss")
	}
	// New traffic is rejected, not blocked.
	if _, err := link.PullAsync(2, 0); err == nil {
		t.Fatal("pull after connection loss succeeded")
	}
}
