package ps

import (
	"sync"
	"testing"
)

// newShardedCluster spins up one server per shard, each on the given
// topology, and returns each worker's links (links[w][s] talks to shard s)
// plus the key map routing tensor t to shard t % shards.
func newShardedCluster(t *testing.T, workers, shards int, shared bool) ([]*Server, [][]WorkerLink, func(int) int, func()) {
	t.Helper()
	servers := make([]*Server, shards)
	perShard := make([][]WorkerLink, shards)
	shutdowns := make([]func() error, shards)
	for s := range servers {
		servers[s], perShard[s], shutdowns[s] = newTopology(t, workers, shared)
	}
	links := make([][]WorkerLink, workers)
	for w := range links {
		links[w] = make([]WorkerLink, shards)
		for s := range links[w] {
			links[w][s] = perShard[s][w]
		}
	}
	of := func(tensor int) int { return tensor % shards }
	return servers, links, of, func() {
		for s, shutdown := range shutdowns {
			if err := shutdown(); err != nil {
				t.Errorf("shard %d serve: %v", s, err)
			}
		}
	}
}

func TestShardedPushPullAggregates(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) { testShardedPushPullAggregates(t, topo.shared) })
	}
}

func testShardedPushPullAggregates(t *testing.T, shared bool) {
	const workers, shards, tensors = 3, 2, 5
	servers, links, of, cleanup := newShardedCluster(t, workers, shards, shared)
	defer cleanup()
	frames := make([]func() (int64, int64), shards)
	for s, srv := range servers {
		frames[s] = countFrames(srv)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for tn := 0; tn < tensors; tn++ {
				if err := links[w][of(tn)].Push(0, tn, []float64{float64(w + tn)}); err != nil {
					t.Errorf("worker %d push %d: %v", w, tn, err)
					return
				}
			}
			for tn := 0; tn < tensors; tn++ {
				link := links[w][of(tn)]
				got, err := link.Pull(0, tn)
				if err != nil {
					t.Errorf("worker %d pull %d: %v", w, tn, err)
					return
				}
				want := (float64(0+tn) + float64(1+tn) + float64(2+tn)) / workers
				if len(got) != 1 || got[0] != want {
					t.Errorf("worker %d tensor %d: got %v want %v", w, tn, got, want)
				}
				link.Recycle(got)
			}
		}(w)
	}
	wg.Wait()

	// Routing: shard s saw exactly the traffic for tensors with t%shards==s.
	want := []int64{3 * workers, 2 * workers} // tensors 0,2,4 vs 1,3
	for s := range servers {
		pushes, pulls := frames[s]()
		if pushes != want[s] || pulls != want[s] {
			t.Errorf("shard %d handled %d pushes %d pulls, want %d each", s, pushes, pulls, want[s])
		}
	}
}
