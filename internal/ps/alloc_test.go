package ps

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"prophet/internal/transport"
)

// sinkConn is a net.Conn whose writes vanish and whose reads block until
// Close — a stand-in server that lets the client's write path run at full
// speed with the read loop parked.
type sinkConn struct {
	once   sync.Once
	closed chan struct{}
}

func newSinkConn() *sinkConn { return &sinkConn{closed: make(chan struct{})} }

func (c *sinkConn) Read(b []byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}
func (c *sinkConn) Write(b []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
		return len(b), nil
	}
}
func (c *sinkConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}
func (c *sinkConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c *sinkConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c *sinkConn) SetDeadline(t time.Time) error      { return nil }
func (c *sinkConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *sinkConn) SetWriteDeadline(t time.Time) error { return nil }

// TestClientPushZeroAllocs pins the write-side hot-path contract: once the
// batch scratch has grown, Push encodes and flushes a gradient with zero
// allocations.
func TestClientPushZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	conn := newSinkConn()
	c := NewClient(conn)
	defer c.Close()
	const runs = 200
	data := make([]float64, 128)
	if err := c.Push(0, 0, data); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if err := c.Push(1, 2, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Push allocated %v per call in steady state, want 0", allocs)
	}
}

// startPair wires one worker to a fresh server over an in-memory pipe.
func startPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	s := NewServer(1)
	sc, cc := net.Pipe()
	go s.Serve([]net.Conn{sc})
	c := NewClient(cc)
	t.Cleanup(func() { c.Close() })
	return s, c
}

// TestPushPullBatchFailsAsUnit: a duplicate registration mid-batch must
// unwind every pull the batch registered, leaving the slots free.
func TestPushPullBatchFailsAsUnit(t *testing.T) {
	_, c := startPair(t)
	// Occupy (iter 1, tensor 1) so the batch's second registration dups.
	if _, err := c.PullAsync(1, 1); err != nil {
		t.Fatal(err)
	}
	err := c.PushPullBatch(1, []int{0, 1},
		func(tensor int) []float64 { return []float64{1} },
		func(tensor int, ch <-chan PullResult) {})
	if err == nil || !strings.Contains(err.Error(), "duplicate pull") {
		t.Fatalf("expected duplicate-pull error, got %v", err)
	}
	// Tensor 0's registration must have been rolled back.
	if _, err := c.PullAsync(1, 0); err != nil {
		t.Fatalf("batch failure leaked a registration: %v", err)
	}
}

// TestPushPullBatchConnLost: a dead connection fails the whole batch with
// ErrConnLost and deregisters everything.
func TestPushPullBatchConnLost(t *testing.T) {
	conn := newSinkConn()
	c := NewClient(conn)
	conn.Close()
	defer c.Close()
	// The read loop may need a moment to observe the close; the write
	// itself fails regardless.
	err := c.PushPullBatch(0, []int{0},
		func(tensor int) []float64 { return []float64{1} },
		func(tensor int, ch <-chan PullResult) {})
	if err == nil {
		t.Fatal("expected failure on closed conn")
	}
	if !errors.Is(err, ErrConnLost) && !strings.Contains(err.Error(), "connection lost") {
		t.Fatalf("want conn-lost flavored error, got %v", err)
	}
}

// TestResultChannelReuse pins the pull path's channel recycling: a result
// channel whose one value has been received serves a later pull, and that
// pull's whole round — register, deliver, receive, recycle — allocates
// nothing; a channel whose value is still unread (a receiver that gave up,
// like a timed-out wait) is never handed out again.
func TestResultChannelReuse(t *testing.T) {
	c := NewClient(newSinkConn()) // the read loop stays parked: this test delivers
	defer c.Close()
	payload := make([]byte, 8*16)
	respond := func(iter, tensor int) {
		c.deliver(&transport.Frame{Type: transport.PullResp, Iter: uint32(iter), Tensor: uint32(tensor), Payload: payload})
	}
	pull := func(iter, tensor int) chan PullResult {
		ch, err := c.register(slotKey{uint32(iter), uint32(tensor)})
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}

	first := pull(0, 0)
	respond(0, 0)
	c.Recycle((<-first).Data)
	iter := 1
	allocs := testing.AllocsPerRun(100, func() {
		ch := pull(iter, 0)
		if ch != first {
			t.Fatalf("iter %d: a received channel was not reused", iter)
		}
		respond(iter, 0)
		c.Recycle((<-ch).Data)
		iter++
	})
	if allocs != 0 && !raceEnabled {
		t.Errorf("a warm pull round allocated %v times, want 0", allocs)
	}

	stale := pull(iter, 1)
	respond(iter, 1) // its value is never received
	for i := 1; i <= 4; i++ {
		ch := pull(iter+i, 1)
		if ch == stale {
			<-stale // free the slot, or teardown blocks failing the pull
			t.Fatalf("pull %d reused a channel whose value is unread", i)
		}
		respond(iter+i, 1)
		<-ch
	}
	if r := <-stale; r.Err != nil || len(r.Data) != 16 {
		t.Fatalf("the unread value changed: %+v", r)
	}
}

// TestServerRoundSteadyStateAllocs pins the server's per-round recycling:
// once warm, a round — every worker pushes every tensor and pulls its mean,
// some pulls parked until the last push aggregates, some answered at once —
// reuses retired slots (their per-worker slices and waiting lists) and
// pooled means, and builds no flush list: the server allocates nothing. The
// done map's amortised growth stays below one object per round.
func TestServerRoundSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	const workers, tensors = 4, 3
	s := NewServer(workers)
	a, b := transport.Pipe(0, 0)
	ids := make([]int, workers)
	for w := range ids {
		ids[w] = w
	}
	served := make(chan error, 1)
	go func() { served <- s.ServeMux(a, ids) }()
	mc := transport.NewMuxConn(b, transport.MuxOptions{Streams: workers, Pool: transport.NewPayloadPool()})
	defer func() {
		mc.Close()
		if err := <-served; err != nil {
			t.Error(err)
		}
	}()
	grad := make([]float64, 64)
	var pull transport.Frame
	iter := uint32(0)
	round := func() {
		iter++
		for tn := uint32(0); tn < tensors; tn++ {
			for w := uint32(0); w < workers; w++ {
				if err := mc.SendFloats(w, transport.Push, iter, tn, grad); err != nil {
					t.Fatal(err)
				}
				pull.Type, pull.Iter, pull.Tensor = transport.PullReq, iter, tn
				if err := mc.SendFrame(w, &pull); err != nil {
					t.Fatal(err)
				}
			}
		}
		for range workers * tensors {
			st, f, err := mc.Read()
			if err != nil {
				t.Fatal(err)
			}
			if f.Type != transport.PullResp || f.Iter != iter || len(f.Payload) != 8*len(grad) {
				t.Fatalf("got %v iter %d with %d bytes, want the iteration-%d mean", f.Type, f.Iter, len(f.Payload), iter)
			}
			mc.Done(st, f)
		}
		// The last response's bookkeeping runs after its write: wait for
		// every slot to retire.
		for {
			s.mu.Lock()
			open := len(s.slots)
			s.mu.Unlock()
			if open == 0 {
				break
			}
			runtime.Gosched()
		}
	}
	for range 3 {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a warm round allocated %v objects, want 0", allocs)
	}
}
