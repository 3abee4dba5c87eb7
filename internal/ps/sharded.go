package ps

import (
	"errors"
	"fmt"
)

// WorkerLink is one worker's connection surface to a parameter server
// shard: a *MuxWorker — one stream of a connection carrying any number of
// in-process workers — or a *Client, the one-stream case that also owns the
// connection.
type WorkerLink interface {
	Push(iter, tensor int, data []float64) error
	PullAsync(iter, tensor int) (<-chan PullResult, error)
	PushPullBatch(iter int, tensors []int, grad func(tensor int) []float64, res func(tensor int, ch <-chan PullResult)) error
	Pull(iter, tensor int) ([]float64, error)
	Recycle(data []float64)
	Close() error
}

var (
	_ WorkerLink = (*Client)(nil)
	_ WorkerLink = (*MuxWorker)(nil)
)

// ShardedClient fans a worker's pushes and pulls across several parameter
// server shards by a deterministic key→shard map: tensor t always talks to
// shard of(t). Every worker and every shard server derives the same map
// from the tensor sizes alone (internal/shard), so no coordination or
// key-routing metadata crosses the wire — exactly how MXNet KVStore and
// BytePS range-shard keys across PS instances.
//
// The client adds no scheduling of its own: callers decide the push order,
// and the cross-shard priority invariant (no shard starts a lower-priority
// block while a higher-priority one has unscheduled bytes) is the caller's
// to enforce — internal/emu gates block dispatch for that.
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

// Push sends a gradient tensor to its shard's server.
func (c *ShardedClient) Push(iter, tensor int, data []float64) error {
	return c.links[c.ShardOf(tensor)].Push(iter, tensor, data)
}

// PullAsync requests the aggregated tensor from its shard's server.
func (c *ShardedClient) PullAsync(iter, tensor int) (<-chan PullResult, error) {
	return c.links[c.ShardOf(tensor)].PullAsync(iter, tensor)
}

// PushPullBatch pushes the listed tensors — which must all live on one
// shard — and issues their pull requests in one buffered write on that
// shard's connection (see MuxWorker.PushPullBatch).
func (c *ShardedClient) PushPullBatch(iter int, tensors []int, grad func(tensor int) []float64, res func(tensor int, ch <-chan PullResult)) error {
	if len(tensors) == 0 {
		return nil
	}
	s := c.ShardOf(tensors[0])
	for _, t := range tensors[1:] {
		if c.ShardOf(t) != s {
			return fmt.Errorf("ps: batch spans shards %d and %d", s, c.ShardOf(t))
		}
	}
	return c.links[s].PushPullBatch(iter, tensors, grad, res)
}

// Recycle hands a pull result's buffer back to the gradient pool (see
// MuxWorker.Recycle).
func (c *ShardedClient) Recycle(data []float64) { floats.Put(data) }

// Pull blocks for the aggregated tensor from its shard's server.
func (c *ShardedClient) Pull(iter, tensor int) ([]float64, error) {
	return c.links[c.ShardOf(tensor)].Pull(iter, tensor)
}

// Close shuts down every shard link, joining the errors.
func (c *ShardedClient) Close() error {
	var errs []error
	for s, cl := range c.links {
		if err := cl.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", s, err))
		}
	}
	return errors.Join(errs...)
}
