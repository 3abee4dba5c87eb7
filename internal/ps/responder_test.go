package ps

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"prophet/internal/probe"
	"prophet/internal/transport"
)

// serveStreams runs ServeMux for workers 0..workers-1 of s on conn and
// returns a func that waits for it to return and reports its error.
func serveStreams(s *Server, conn net.Conn, workers int) func() error {
	ids := make([]int, workers)
	for w := range ids {
		ids[w] = w
	}
	served := make(chan error, 1)
	go func() { served <- s.ServeMux(conn, ids) }()
	return func() error { return <-served }
}

// waitFor polls cond, under s.mu, until it holds.
func waitFor(t *testing.T, s *Server, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		ok := cond()
		s.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// rawWorkers is the client end of a ServeMux driven frame by frame, its
// reader stalled until the test reads.
type rawWorkers struct {
	t  *testing.T
	mc *transport.MuxConn
}

func (c rawWorkers) push(w, iter, tensor int, data []float64) {
	c.t.Helper()
	if err := c.mc.SendFloats(uint32(w), transport.Push, uint32(iter), uint32(tensor), data); err != nil {
		c.t.Fatal(err)
	}
}

func (c rawWorkers) pull(w, iter, tensor int) {
	c.t.Helper()
	if err := c.mc.SendFrame(uint32(w), &transport.Frame{Type: transport.PullReq, Iter: uint32(iter), Tensor: uint32(tensor)}); err != nil {
		c.t.Fatal(err)
	}
}

// response reads the next frame and checks it is the response for
// (iter, tensor) on worker w's stream.
func (c rawWorkers) response(w, iter, tensor int) {
	c.t.Helper()
	st, f, err := c.mc.Read()
	if err != nil {
		c.t.Fatal(err)
	}
	if st != uint32(w) || f.Type != transport.PullResp || f.Iter != uint32(iter) || f.Tensor != uint32(tensor) {
		c.t.Fatalf("got %v for iter %d tensor %d on stream %d, want the response for iter %d tensor %d on stream %d",
			f.Type, f.Iter, f.Tensor, st, iter, tensor, w)
	}
	c.mc.Done(st, f)
}

// queued reports whether the slot of (iter, tensor) has been answered to
// worker w and has n responses still waiting to be encoded. Called with
// s.mu held.
func queued(s *Server, iter, tensor uint32, w, n int) bool {
	sl := s.slots[slotKey{iter, tensor}]
	return sl != nil && sl.servedBy[w] && sl.queued == n
}

// TestResponsesShareWrites: the pull responses queued while the responder
// is busy go out together — sixteen workers on one connection, every pull
// parked until the last push aggregates, cost the server fewer writes than
// responses.
func TestResponsesShareWrites(t *testing.T) {
	const workers = 16
	s := NewServer(workers)
	m := probe.NewMetrics()
	a, b := transport.Pipe(0, 0)
	wait := serveStreams(s, transport.Meter(a, m, "server"), workers)
	g := NewMuxGroup(b, workers, MuxGroupOptions{})
	chans := make([]<-chan PullResult, workers)
	for w := range chans {
		ch, err := g.Worker(w).PullAsync(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		chans[w] = ch
	}
	for w := range chans {
		if err := g.Worker(w).Push(0, 0, []float64{float64(w)}); err != nil {
			t.Fatal(err)
		}
	}
	for w, ch := range chans {
		if r := <-ch; r.Err != nil || len(r.Data) != 1 || r.Data[0] != 7.5 {
			t.Fatalf("worker %d pulled %v, %v; want [7.5]", w, r.Data, r.Err)
		}
	}
	g.Close()
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if writes := m.Counter("server_writes").Value(); writes >= workers {
		t.Fatalf("%d responses took %d server writes, want fewer", workers, writes)
	}
}

// sizeConn records the size of every write.
type sizeConn struct {
	net.Conn
	mu    sync.Mutex
	sizes []int
}

func (c *sizeConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.sizes = append(c.sizes, len(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// TestResponseBatchBound: the responder packs queued responses only up to
// transport.MaxCombinedWrite — four 24 KB responses take at least two
// writes — and a response larger than that goes out whole, alone.
func TestResponseBatchBound(t *testing.T) {
	const workers = 4
	elems := []int{3000, 9000} // per tensor: 24 KB and 72 KB responses
	frame := func(tensor int) int { return transport.MuxHeaderSize + 8*elems[tensor] }
	s := NewServer(workers)
	a, b := transport.Pipe(0, 0)
	sc := &sizeConn{Conn: a}
	wait := serveStreams(s, sc, workers)
	g := NewMuxGroup(b, workers, MuxGroupOptions{})
	var chans []<-chan PullResult
	for w := range workers {
		for tn := range elems {
			ch, err := g.Worker(w).PullAsync(0, tn)
			if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, ch)
		}
	}
	for tn, n := range elems {
		for w := range workers {
			if err := g.Worker(w).Push(0, tn, make([]float64, n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, ch := range chans {
		if r := <-ch; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	g.Close()
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	small, total := 0, 0
	for _, n := range sc.sizes {
		total += n
		if n != frame(1) {
			small++
		}
		if n > transport.MaxCombinedWrite && n != frame(1) {
			t.Fatalf("a %d-byte write is over the %d-byte bound and not one response", n, transport.MaxCombinedWrite)
		}
	}
	if want := workers * (frame(0) + frame(1)); total != want {
		t.Fatalf("server wrote %d bytes, want %d", total, want)
	}
	if small < 2 {
		t.Fatalf("the %d bytes of 24 KB responses went out in %d writes (sizes %v), want at least two", workers*frame(0), small, sc.sizes)
	}
}

// TestDroppedWorkerResponseNotWritten: a response queued for a worker that
// is dropped before the responder encodes it is never written, and its
// slot still retires.
func TestDroppedWorkerResponseNotWritten(t *testing.T) {
	s := NewServer(2)
	a, b := net.Pipe() // a rendezvous: the responder's write parks until read
	wait := serveStreams(s, a, 2)
	c := rawWorkers{t, transport.NewMuxConn(b, transport.MuxOptions{Streams: 2, Pool: transport.NewPayloadPool()})}
	c.push(0, 0, 0, []float64{1})
	c.push(1, 0, 0, []float64{3})
	// Nothing reads yet: the responder takes worker 0's response and parks
	// in its write, so worker 1's waits in the queue.
	c.pull(0, 0, 0)
	waitFor(t, s, "the responder takes worker 0's response", func() bool { return queued(s, 0, 0, 0, 0) })
	c.pull(1, 0, 0)
	waitFor(t, s, "worker 1's response is queued", func() bool { return queued(s, 0, 0, 1, 1) })
	s.DropWorker(1)
	s.mu.Lock()
	kept := queued(s, 0, 0, 1, 1)
	s.mu.Unlock()
	if !kept {
		t.Fatal("the drop retired a slot whose response is still queued")
	}
	c.response(0, 0, 0)
	waitFor(t, s, "the slot retires", func() bool { return s.done[slotKey{0, 0}] })
	// Worker 0 trains on alone; its next response is the next frame.
	c.push(0, 0, 1, []float64{5})
	c.pull(0, 0, 1)
	c.response(0, 0, 1)
	c.mc.Close()
	if err := wait(); err != nil {
		t.Fatal(err)
	}
}

// TestPullWhileResponseQueuedIsDuplicate: a worker's second pull of a slot
// whose first response is queued but not yet written is a protocol error,
// and it is what ServeMux returns — not the responder's write, which the
// demux loop's close of the connection fails on its way out.
func TestPullWhileResponseQueuedIsDuplicate(t *testing.T) {
	s := NewServer(1)
	var mu sync.Mutex
	var failures []string
	s.OnWorkerFailure(func(w int, err error) {
		mu.Lock()
		failures = append(failures, err.Error())
		mu.Unlock()
	})
	a, b := net.Pipe() // a rendezvous: the responder's write parks until read
	wait := serveStreams(s, a, 1)
	c := rawWorkers{t, transport.NewMuxConn(b, transport.MuxOptions{Streams: 1, Pool: transport.NewPayloadPool()})}
	defer c.mc.Close()
	c.push(0, 0, 0, []float64{1})
	c.push(0, 0, 1, []float64{2})
	c.pull(0, 0, 0)
	waitFor(t, s, "the responder takes the first response", func() bool { return s.done[slotKey{0, 0}] })
	c.pull(0, 0, 1)
	waitFor(t, s, "the second response is queued", func() bool { return queued(s, 0, 1, 0, 1) })
	c.pull(0, 0, 1)
	if err := wait(); err == nil || !strings.Contains(err.Error(), "duplicate pull") {
		t.Fatalf("ServeMux returned %v after a duplicate pull, want the duplicate pull", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, f := range failures {
		if strings.Contains(f, "duplicate pull") {
			return
		}
	}
	t.Fatalf("worker failures %q name no duplicate pull", failures)
}
