package ps

import "fmt"

// WorkerLink is one worker's connection surface to a parameter server
// shard: a *MuxWorker — one stream of a connection carrying any number of
// in-process workers — or a *Client, the one-stream case that also owns the
// connection. Teardown is the connection owner's: MuxGroup.Close or
// Client.Close.
type WorkerLink interface {
	Push(iter, tensor int, data []float64) error
	PullAsync(iter, tensor int) (<-chan PullResult, error)
	PushPullBatch(iter int, tensors []int, grad func(tensor int) []float64, res func(tensor int, ch <-chan PullResult)) error
	Pull(iter, tensor int) ([]float64, error)
	Recycle(data []float64)
}

var (
	_ WorkerLink = (*Client)(nil)
	_ WorkerLink = (*MuxWorker)(nil)
)

// ShardedClient is one worker's routing view over several parameter server
// shards: tensor t always talks to Shard(ShardOf(t)). Every worker and every
// shard server derives the same key→shard map from the tensor sizes alone
// (internal/shard), so no coordination or key-routing metadata crosses the
// wire — exactly how MXNet KVStore and BytePS range-shard keys across PS
// instances.
//
// The view adds no scheduling and owns no connection: callers send on the
// shard links themselves, decide the push order, and enforce the
// cross-shard priority invariant (no shard starts a lower-priority block
// while a higher-priority one has unscheduled bytes) — internal/emu gates
// block dispatch for that.
type ShardedClient struct {
	links []WorkerLink
	of    func(tensor int) int
}

// NewShardedLinks builds a sharded view over one link per shard. `of` maps
// a tensor index to its shard and must be total over the tensors pushed;
// out-of-range results panic at use.
func NewShardedLinks(links []WorkerLink, of func(tensor int) int) *ShardedClient {
	if len(links) == 0 {
		panic("ps: NewShardedLinks with no links")
	}
	if of == nil {
		if len(links) > 1 {
			panic("ps: NewShardedLinks with multiple shards needs a key map")
		}
		of = func(int) int { return 0 }
	}
	return &ShardedClient{links: links, of: of}
}

// Shards returns the shard count.
func (c *ShardedClient) Shards() int { return len(c.links) }

// Shard returns shard s's underlying link.
func (c *ShardedClient) Shard(s int) WorkerLink { return c.links[s] }

// ShardOf returns the shard that owns tensor t.
func (c *ShardedClient) ShardOf(t int) int {
	s := c.of(t)
	if s < 0 || s >= len(c.links) {
		panic(fmt.Sprintf("ps: tensor %d maps to shard %d of %d", t, s, len(c.links)))
	}
	return s
}

// Recycle hands a pull result's buffer back to the gradient pool (see
// MuxWorker.Recycle).
func (c *ShardedClient) Recycle(data []float64) { floats.Put(data) }
