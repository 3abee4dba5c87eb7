// Package allreduce is the shim the frozen benchmark/ module compiles
// against. The simulated collective is cluster.Run with Config.Transport
// set to "ring" or "tree" (internal/cluster/collective.go); nothing else in
// this module imports the package, and a benchmark-only change that switches
// benchmark/ to cluster.Run deletes it.
package allreduce

import (
	"prophet/internal/cluster"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/probe"
	"prophet/internal/stepwise"
)

// Config is the subset of cluster.Config a collective run takes, under the
// names the benchmark sets.
type Config struct {
	Model *model.Model
	// Batch is the per-worker mini-batch size.
	Batch int
	// Workers is the ring size.
	Workers int
	// Agg is cluster.Config.Agg.
	Agg stepwise.Buckets
	// Link describes each inter-worker link (cluster.Config.Uplink for
	// every worker); a zero Link selects the cluster default.
	Link netsim.LinkConfig
	// Backend is cluster.Config.Transport: "ring" (default) or "tree".
	Backend string
	// Scheduler, Iterations, Seed, Observer and RecordMessages are the
	// cluster.Config fields of the same names.
	Scheduler      cluster.SchedulerFactory
	Iterations     int
	Seed           uint64
	Observer       probe.Observer
	RecordMessages bool
}

// Result is the cluster.Result of the run; Reductions counts the collective
// operations executed (cluster.Result.Sends).
type Result struct {
	*cluster.Result
	Reductions int
}

// Run simulates synchronous collective all-reduce training.
func Run(cfg Config) (*Result, error) {
	c := cluster.Config{
		Model:          cfg.Model,
		Batch:          cfg.Batch,
		Workers:        cfg.Workers,
		Transport:      cfg.Backend,
		Agg:            cfg.Agg,
		Scheduler:      cfg.Scheduler,
		Iterations:     cfg.Iterations,
		Seed:           cfg.Seed,
		Observer:       cfg.Observer,
		RecordMessages: cfg.RecordMessages,
	}
	if c.Transport == "" {
		c.Transport = "ring"
	}
	if cfg.Link.Trace != nil {
		c.Uplink = func(int) netsim.LinkConfig { return cfg.Link }
	}
	res, err := cluster.Run(c)
	if err != nil {
		return nil, err
	}
	return &Result{Result: res, Reductions: res.Sends}, nil
}
