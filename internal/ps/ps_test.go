package ps

import (
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"prophet/internal/probe"
	"prophet/internal/transport"
)

// topologies are the two ways workers map onto connections. The wire
// protocol is the same on both, so tests of protocol behaviour run as one
// table over them.
var topologies = []struct {
	name   string
	shared bool
}{{"per-worker", false}, {"shared", true}}

// newTopology spins up a server plus W worker links over in-memory pipes:
// one connection per worker (Serve + NewClient) or one shared by all
// (ServeMux + MuxGroup). shutdown closes the client side and returns the
// serving call's error.
func newTopology(t *testing.T, workers int, shared bool) (*Server, []WorkerLink, func() error) {
	t.Helper()
	links := make([]WorkerLink, workers)
	if shared {
		srv, g, shutdown := newMuxCluster(t, workers)
		for w := range links {
			links[w] = g.Worker(w)
		}
		return srv, links, shutdown
	}
	srv := NewServer(workers)
	serverEnds := make([]net.Conn, workers)
	clients := make([]*Client, workers)
	for w := 0; w < workers; w++ {
		a, b := transport.Pipe(0, 0)
		serverEnds[w] = b
		clients[w] = NewClient(a)
		links[w] = clients[w]
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(serverEnds) }()
	return srv, links, func() error {
		for _, c := range clients {
			c.Close()
		}
		return <-serveErr
	}
}

// newCluster is the per-worker topology with a cleanup that expects a
// clean serve.
func newCluster(t *testing.T, workers int) (*Server, []WorkerLink, func()) {
	t.Helper()
	srv, links, shutdown := newTopology(t, workers, false)
	return srv, links, func() {
		if err := shutdown(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}
}

func TestPushPullSingleWorker(t *testing.T) {
	_, clients, cleanup := newCluster(t, 1)
	defer cleanup()
	if err := clients[0].Push(0, 5, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := clients[0].Pull(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestAggregationIsMean(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			_, clients, shutdown := newTopology(t, 3, topo.shared)
			var wg sync.WaitGroup
			for w, v := range []float64{1, 2, 6} {
				wg.Add(1)
				go func(w int, v float64) {
					defer wg.Done()
					if err := clients[w].Push(0, 0, []float64{v, 2 * v}); err != nil {
						t.Errorf("worker %d push: %v", w, err)
						return
					}
					got, err := clients[w].Pull(0, 0)
					if err != nil {
						t.Errorf("worker %d pull: %v", w, err)
						return
					}
					if len(got) != 2 || math.Abs(got[0]-3) > 1e-15 || math.Abs(got[1]-6) > 1e-15 {
						t.Errorf("worker %d: mean = %v, want [3 6]", w, got)
					}
				}(w, v)
			}
			wg.Wait()
			if err := shutdown(); err != nil {
				t.Fatalf("serve: %v", err)
			}
		})
	}
}

func TestPullBlocksUntilAllPushed(t *testing.T) {
	_, clients, cleanup := newCluster(t, 2)
	defer cleanup()
	if err := clients[0].Push(0, 0, []float64{10}); err != nil {
		t.Fatal(err)
	}
	got := make(chan []float64, 1)
	go func() {
		v, err := clients[0].Pull(0, 0)
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	select {
	case <-got:
		t.Fatal("pull completed before all workers pushed")
	default:
	}
	if err := clients[1].Push(0, 0, []float64{20}); err != nil {
		t.Fatal(err)
	}
	v := <-got
	if v[0] != 15 {
		t.Fatalf("got %v", v)
	}
}

func TestIterationsAreIndependent(t *testing.T) {
	_, clients, cleanup := newCluster(t, 1)
	defer cleanup()
	clients[0].Push(0, 0, []float64{1})
	clients[0].Push(1, 0, []float64{2})
	v0, _ := clients[0].Pull(0, 0)
	v1, _ := clients[0].Pull(1, 0)
	if v0[0] != 1 || v1[0] != 2 {
		t.Fatalf("v0=%v v1=%v", v0, v1)
	}
}

func TestManyTensorsConcurrently(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) { testManyTensorsConcurrently(t, topo.shared) })
	}
}

func testManyTensorsConcurrently(t *testing.T, shared bool) {
	const workers = 3
	const tensors = 20
	_, clients, shutdown := newTopology(t, workers, shared)
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for tix := 0; tix < tensors; tix++ {
				if err := clients[w].Push(0, tix, []float64{float64(tix), float64(w)}); err != nil {
					t.Error(err)
					return
				}
			}
			for tix := tensors - 1; tix >= 0; tix-- {
				v, err := clients[w].Pull(0, tix)
				if err != nil {
					t.Error(err)
					return
				}
				if v[0] != float64(tix) || v[1] != 1 { // mean of 0,1,2
					t.Errorf("tensor %d = %v", tix, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestDeterministicAggregationOrder(t *testing.T) {
	// Floating-point sums depend on order; the server must sum in worker
	// order, so adversarial arrival orders give identical bits.
	vals := []float64{1e-16, 1.0, -1.0}
	run := func(order []int) float64 {
		_, clients, cleanup := newCluster(t, 3)
		defer cleanup()
		for _, w := range order {
			if err := clients[w].Push(0, 0, []float64{vals[w]}); err != nil {
				t.Fatal(err)
			}
		}
		v, err := clients[0].Pull(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return v[0]
	}
	a := run([]int{0, 1, 2})
	b := run([]int{2, 1, 0})
	if a != b {
		t.Fatalf("aggregation depends on arrival order: %v vs %v", a, b)
	}
}

// TestDoublePushRejected: a second push of the same tensor is a protocol
// violation that tears down the offender's connection and is attributed to
// it alone — a failure, not a drop.
func TestDoublePushRejected(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			srv, clients, shutdown := newTopology(t, 2, topo.shared)
			clients[1].Push(0, 0, []float64{1})
			clients[1].Push(0, 0, []float64{2})
			// The serving call returns on its own for the offender's
			// connection; shutdown closes the rest.
			var we *WorkerError
			if err := shutdown(); !errors.As(err, &we) || we.Worker != 1 {
				t.Fatalf("serve error %v, want WorkerError for worker 1", err)
			}
			if srv.IsDropped(1) {
				t.Fatal("protocol violation should fail, not drop, the worker")
			}
		})
	}
}

// countFrames attaches a fresh registry to srv and returns a reader of its
// ps_server_pushes and ps_server_pulls counters. The server reads its
// counter handles under its lock, so attaching before the first frame
// counts every frame.
func countFrames(srv *Server) func() (pushes, pulls int64) {
	m := probe.NewMetrics()
	srv.SetMetrics(m)
	return func() (int64, int64) {
		return m.Counter("ps_server_pushes").Value(), m.Counter("ps_server_pulls").Value()
	}
}

func TestServerStats(t *testing.T) {
	srv, clients, cleanup := newCluster(t, 1)
	defer cleanup()
	frames := countFrames(srv)
	clients[0].Push(0, 0, []float64{1})
	if _, err := clients[0].Pull(0, 0); err != nil {
		t.Fatal(err)
	}
	if pushes, pulls := frames(); pushes != 1 || pulls != 1 {
		t.Fatalf("stats = %d, %d", pushes, pulls)
	}
}

func TestServeWrongConnCount(t *testing.T) {
	srv := NewServer(2)
	if err := srv.Serve(nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestNewServerZeroWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewServer(0)
}

func TestDuplicatePullRejected(t *testing.T) {
	// No server: the far end just discards, so the first pull stays
	// pending and the second must be rejected as a duplicate.
	a, b := transport.Pipe(0, 0)
	go io.Copy(io.Discard, b)
	c := NewClient(a)
	go c.Pull(0, 0) // parks forever; released by Close below
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		n := len(c.pending)
		c.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first pull never registered")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Pull(0, 0); err == nil {
		t.Fatal("duplicate pull not rejected")
	}
	c.Close()
	b.Close()
}
