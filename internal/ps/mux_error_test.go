package ps

import (
	"testing"

	"prophet/internal/transport"
)

// The constructor path of the mux group, and a batch on a lost connection:
// misconfiguration must fail loudly at construction, and connection loss
// must fail a batch with a conn-flavored error instead of hanging.

// TestMuxWorkerBatchAfterConnLoss: a PushPullBatch on a mux stream whose
// shared connection died must fail with a conn-flavored error — either at
// the write or on the delivered channels — never hang.
func TestMuxWorkerBatchAfterConnLoss(t *testing.T) {
	s := NewServer(2)
	a, b := transport.Pipe(0, 0)
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ServeMux(b, []int{0, 1}) }()
	g := NewMuxGroup(a, 2, MuxGroupOptions{})

	a.Close() // kill the shared connection under both workers
	<-serveErr

	link := g.Worker(0)
	var chans []<-chan PullResult
	err := link.PushPullBatch(0, []int{0},
		func(int) []float64 { return []float64{1} },
		func(_ int, ch <-chan PullResult) { chans = append(chans, ch) })
	if err == nil {
		// The demux loop may not have observed the loss at write time; the
		// pending pulls must then fail instead of waiting out the timeout.
		for _, ch := range chans {
			r := <-ch
			if r.Err == nil {
				t.Fatal("batch on dead connection delivered a result")
			}
			err = r.Err
		}
	}
	if err == nil {
		t.Fatal("batch on dead connection reported no error")
	}
	g.Close()
}

// TestMuxGroupUnknownWorkerPanics: asking the group for a stream it never
// created is a programming error, not a recoverable condition.
func TestMuxGroupUnknownWorkerPanics(t *testing.T) {
	_, g, shutdown := newMuxCluster(t, 2)
	defer shutdown() //nolint:errcheck — conn torn down by Close
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown worker index")
		}
	}()
	g.Worker(5)
}
