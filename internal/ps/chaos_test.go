package ps

import (
	"errors"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"prophet/internal/fault"
	"prophet/internal/transport"
)

// TestCorruptResponseFailsWaiter pins the readLoop bugfix: a pull response
// whose payload is not a float64 array must fail the matching waiter
// instead of silently stranding it forever.
func TestCorruptResponseFailsWaiter(t *testing.T) {
	a, b := net.Pipe()
	c := NewClient(a)
	defer c.Close()
	defer b.Close()
	go func() {
		// Act as the server: consume the pull request, answer with a
		// 5-byte payload (not a multiple of 8).
		mc := transport.NewMuxConn(b, transport.MuxOptions{Streams: 1})
		if _, _, err := mc.Read(); err != nil {
			t.Error(err)
			return
		}
		mc.SendFrame(0, &transport.Frame{
			Type: transport.PullResp, Iter: 0, Tensor: 7, Payload: []byte{1, 2, 3, 4, 5},
		})
	}()
	ch, err := c.PullAsync(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-ch:
		if r.Err == nil {
			t.Fatalf("corrupt response delivered data %v, want error", r.Data)
		}
		if !strings.Contains(r.Err.Error(), "pull response") {
			t.Fatalf("error %q does not describe the decode failure", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded: corrupt response never failed the pull")
	}
}

// TestLatePullIsProtocolError pins the slot-GC bugfix: a pull that arrives
// after the slot was served to every worker and garbage-collected must be
// rejected as a protocol error, not recreate an empty slot that queues the
// pull forever.
func TestLatePullIsProtocolError(t *testing.T) {
	srv := NewServer(1)
	a, b := transport.Pipe(0, 0)
	c := NewClient(a)
	done := make(chan error, 1)
	go func() { done <- srv.Serve([]net.Conn{b}) }()

	if err := c.Push(0, 0, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pull(0, 0); err != nil {
		t.Fatal(err) // first pull: served and slot GC'd
	}
	// The duplicate pull must fail — the server kills the connection with a
	// protocol error, which reaches the client as a lost connection.
	if _, err := c.Pull(0, 0); err == nil {
		t.Fatal("late pull succeeded, want protocol error")
	}
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "already served") {
		t.Fatalf("Serve = %v, want already-served protocol error", err)
	}
	c.Close()
	b.Close()
}

// TestDropWorkerRenormalizesMean: dropping a silent worker completes the
// slot over the survivors, with the mean divided by the live count.
func TestDropWorkerRenormalizesMean(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			srv, clients, shutdown := newTopology(t, 3, topo.shared)
			if err := clients[0].Push(0, 0, []float64{3}); err != nil {
				t.Fatal(err)
			}
			if err := clients[2].Push(0, 0, []float64{6}); err != nil {
				t.Fatal(err)
			}
			got := make(chan PullResult, 2)
			for _, w := range []int{0, 2} {
				ch, err := clients[w].PullAsync(0, 0)
				if err != nil {
					t.Fatal(err)
				}
				go func() { got <- <-ch }()
			}
			srv.DropWorker(1) // worker 1 never pushed
			for i := 0; i < 2; i++ {
				select {
				case r := <-got:
					if r.Err != nil {
						t.Fatal(r.Err)
					}
					if math.Abs(r.Data[0]-4.5) > 1e-15 {
						t.Fatalf("mean = %v, want (3+6)/2 = 4.5", r.Data[0])
					}
				case <-time.After(2 * time.Second):
					t.Fatal("pull hung after DropWorker")
				}
			}
			if !srv.IsDropped(1) || len(srv.Dropped()) != 1 {
				t.Fatalf("dropped = %v, want [1]", srv.Dropped())
			}
			if err := shutdown(); err != nil {
				t.Fatalf("serve: %v", err)
			}
		})
	}
}

// TestDropWorkerClosesOrphanedConnection: a connection whose every worker
// has been dropped is closed, so the dropped worker's pending pull fails
// at once instead of waiting out its timeout; a connection that still
// carries a live worker stays up.
func TestDropWorkerClosesOrphanedConnection(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			srv, clients, shutdown := newTopology(t, 2, topo.shared)
			ch, err := clients[1].PullAsync(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			srv.DropWorker(1)
			select {
			case r := <-ch:
				if topo.shared {
					t.Fatalf("shared connection closed under live worker 0 (pull got %v)", r.Err)
				}
				if !errors.Is(r.Err, ErrConnLost) {
					t.Fatalf("dropped worker's pull failed with %v, want ErrConnLost", r.Err)
				}
			case <-time.After(100 * time.Millisecond):
				if !topo.shared {
					t.Fatal("dropped worker's private connection stayed open")
				}
			}
			// The survivor trains on alone.
			if err := clients[0].Push(0, 0, []float64{3}); err != nil {
				t.Fatal(err)
			}
			if got, err := clients[0].Pull(0, 0); err != nil || got[0] != 3 {
				t.Fatalf("survivor pull = %v, %v; want [3]", got, err)
			}
			if err := shutdown(); err != nil {
				t.Fatalf("serve: %v", err)
			}
		})
	}
}

// TestDropBeforeServeClosesOrphanedConnection: a worker dropped before the
// serving call has registered its connection still has it closed — at
// registration, since DropWorker found nothing to close — so its pull,
// already buffered in the pipe, fails at once; its live neighbour's private
// connection stays up.
func TestDropBeforeServeClosesOrphanedConnection(t *testing.T) {
	srv := NewServer(2)
	serverEnds := make([]net.Conn, 2)
	clients := make([]*Client, 2)
	for w := range clients {
		a, b := transport.Pipe(0, 0)
		serverEnds[w], clients[w] = b, NewClient(a)
	}
	ch, err := clients[1].PullAsync(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.DropWorker(1)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(serverEnds) }()
	select {
	case r := <-ch:
		if !errors.Is(r.Err, ErrConnLost) {
			t.Fatalf("dropped worker's pull failed with %v, want ErrConnLost", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("connection of a worker dropped before Serve stayed open")
	}
	if err := clients[0].Push(0, 0, []float64{3}); err != nil {
		t.Fatal(err)
	}
	if got, err := clients[0].Pull(0, 0); err != nil || got[0] != 3 {
		t.Fatalf("survivor pull = %v, %v; want [3]", got, err)
	}
	for _, c := range clients {
		c.Close()
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestLastServingCallStopsStragglerTimers: a straggler timer armed by a
// parked pull must not outlive the serving calls — once the last connection
// has returned there is nobody left to answer, and a late firing would drop
// workers of a finished run.
func TestLastServingCallStopsStragglerTimers(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			const timeout = 50 * time.Millisecond
			srv, clients, shutdown := newTopology(t, 2, topo.shared)
			frames := countFrames(srv)
			fired := make(chan []int, 1)
			srv.SetStragglerPolicy(timeout, func(missing []int) { fired <- missing })
			if err := clients[0].Push(0, 0, []float64{1}); err != nil {
				t.Fatal(err)
			}
			if _, err := clients[0].PullAsync(0, 0); err != nil { // parks: worker 1 never pushes
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				if _, pulls := frames(); pulls == 1 {
					break // the timer is armed
				}
				if time.Now().After(deadline) {
					t.Fatal("pull never reached the server")
				}
				time.Sleep(time.Millisecond)
			}
			if err := shutdown(); err != nil {
				t.Fatalf("serve: %v", err)
			}
			select {
			case missing := <-fired:
				t.Fatalf("straggler timer fired after the last serving call returned (missing %v)", missing)
			case <-time.After(3 * timeout):
			}
		})
	}
}

// TestStragglerPolicyDropsSilentWorker: with a straggler policy configured,
// a worker that never contributes to a slot others are waiting on is
// detected and dropped without any explicit DropWorker call.
func TestStragglerPolicyDropsSilentWorker(t *testing.T) {
	srv := NewServer(2)
	conns := make([]net.Conn, 2)
	clients := make([]*Client, 2)
	for w := range conns {
		a, b := transport.Pipe(0, 0)
		conns[w] = b
		clients[w] = NewClient(a)
	}
	dropped := make(chan []int, 1)
	srv.SetStragglerPolicy(30*time.Millisecond, func(missing []int) { dropped <- missing })
	done := make(chan error, 1)
	go func() { done <- srv.Serve(conns) }()

	if err := clients[0].Push(3, 1, []float64{8}); err != nil {
		t.Fatal(err)
	}
	got, err := clients[0].Pull(3, 1) // parks; straggler timer fires
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-8) > 1e-15 {
		t.Fatalf("renormalized mean = %v, want 8/1", got[0])
	}
	if missing := <-dropped; len(missing) != 1 || missing[0] != 1 {
		t.Fatalf("policy reported dropping %v, want [1]", missing)
	}
	if !srv.IsDropped(1) {
		t.Fatal("straggler not dropped")
	}
	for _, c := range clients {
		c.Close()
	}
	for _, b := range conns {
		b.Close()
	}
	if err := <-done; err != nil {
		t.Errorf("serve: %v", err)
	}
}

// TestOnWorkerFailureSeesCorruptFrame: a corrupted push payload surfaces
// through the per-worker failure callback and Serve's return value instead
// of being treated as a clean shutdown.
func TestOnWorkerFailureSeesCorruptFrame(t *testing.T) {
	srv := NewServer(1)
	a, b := transport.Pipe(0, 0)
	// Flip the last byte of the first frame's header — the high byte of its
	// length prefix: the announced payload balloons past MaxPayload and the
	// server rejects the frame outright, a deterministic framing error.
	fa := fault.CorruptAt(transport.MuxHeaderSize - 1).Wrap(a)
	c := NewClient(fa)
	failures := make(chan error, 1)
	srv.OnWorkerFailure(func(w int, err error) {
		if w != 0 {
			t.Errorf("failure attributed to worker %d", w)
		}
		failures <- err
	})
	done := make(chan error, 1)
	go func() { done <- srv.Serve([]net.Conn{b}) }()

	// A huge corrupted length prefix makes the server reject the frame.
	c.Push(0, 0, make([]float64, 64))
	select {
	case err := <-failures:
		if err == nil {
			t.Fatal("nil failure")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("corrupt frame never surfaced as a worker failure")
	}
	c.Close()
	b.Close()
	if err := <-done; err == nil {
		t.Fatal("Serve = nil, want worker error for corrupt frame")
	} else {
		var we *WorkerError
		if !errors.As(err, &we) || we.Worker != 0 {
			t.Fatalf("Serve = %v, want *WorkerError for worker 0", err)
		}
	}
}

// TestInjectedDropSurfacesNotHangs: a connection dropped mid-frame by the
// fault injector produces a descriptive failure on both sides — the pull
// errors out and Serve attributes the failure — never a hang.
func TestInjectedDropSurfacesNotHangs(t *testing.T) {
	srv := NewServer(1)
	a, b := transport.Pipe(0, 0)
	// The push is one header plus a 64-float (512-byte) payload; drop
	// mid-payload.
	fa := fault.DropAt(transport.MuxHeaderSize + 512/2).Wrap(a)
	g := NewMuxGroup(fa, 1, MuxGroupOptions{})
	c := g.Worker(0)
	done := make(chan error, 1)
	go func() { done <- srv.Serve([]net.Conn{b}) }()

	if err := c.Push(0, 0, make([]float64, 64)); !errors.Is(err, fault.ErrInjectedDrop) {
		t.Fatalf("push err = %v, want ErrInjectedDrop", err)
	}
	if _, err := c.Pull(0, 0); err == nil {
		t.Fatal("pull on dropped connection succeeded")
	}
	err := <-done
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("Serve = %v, want *WorkerError (mid-frame cut is not a clean close)", err)
	}
	g.Close()
	b.Close()
}

// TestStallDelaysButCompletes: a transient stall shorter than the pull
// timeout delays the round trip without failing it.
func TestStallDelaysButCompletes(t *testing.T) {
	srv := NewServer(1)
	a, b := transport.Pipe(0, 0)
	const stall = 60 * time.Millisecond
	fa := fault.StallAt(transport.MuxHeaderSize+3, stall).Wrap(a) // mid-push-frame, inside the payload
	g := NewMuxGroup(fa, 1, MuxGroupOptions{})
	c := g.Worker(0)
	done := make(chan error, 1)
	go func() { done <- srv.Serve([]net.Conn{b}) }()

	start := time.Now()
	if err := c.Push(0, 0, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Pull(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < stall {
		t.Fatalf("round trip %v beat the %v stall", elapsed, stall)
	}
	if got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
	g.Close()
	b.Close()
	if err := <-done; err != nil {
		t.Errorf("serve: %v", err)
	}
}
