// Package strategy is the shared name→constructor table for communication
// scheduling strategies. Both execution paths — the discrete-event cluster
// simulator and the live emulation — and the -policy flag resolve names
// through it, so every strategy is available under identical names
// everywhere, and a row added to the table here lands in both paths by
// construction. The simulator alone builds Prophet outside the table, from
// one planner per factory, through the same schedule constructors.
//
// Names: fifo, p3, tictac, bytescheduler, bytescheduler-tuned, fusion,
// prophet.
package strategy

import (
	"fmt"
	"sort"

	"prophet/internal/core"
	"prophet/internal/schedule"
)

// Default strategy parameters: the paper's testbed configuration (P3
// partition and ByteScheduler credit 4 MB, Sec. 5.1; tuner exploration
// bounds 1–16 MB as in Fig. 3(b)), and Horovod's 64 MB fusion buffer.
const (
	DefaultPartition   = 4e6
	DefaultCredit      = 4e6
	DefaultMinCredit   = 1e6
	DefaultMaxCredit   = 16e6
	DefaultFusionBytes = 64e6
)

// Params carries everything a strategy constructor may need. Sizes is
// required by every strategy; the remaining fields have per-strategy
// defaults or are ignored by strategies that do not use them.
type Params struct {
	// Sizes is the per-gradient wire size in bytes.
	Sizes []float64
	// Partition is P3's slice size in bytes (default DefaultPartition).
	Partition float64
	// Credit is ByteScheduler's credit in bytes (default DefaultCredit).
	Credit float64
	// FusionBytes is fusion's buffer threshold in bytes (default
	// DefaultFusionBytes).
	FusionBytes float64
	// Seed drives the tuner's exploration; Worker decorrelates per-worker
	// tuner instances (each worker derives its own stream from Seed).
	Seed   uint64
	Worker int
	// Profile is the profiled generation pattern Prophet plans against
	// (required for prophet).
	Profile *core.Profile
	// Bandwidth is Prophet's bandwidth source in bytes/sec, polled each
	// iteration (default: a constant 1e9 — effectively "network never the
	// planner's constraint").
	Bandwidth func() float64
	// Overhead returns Prophet's fixed per-message wire cost in seconds at
	// a given bandwidth (optional).
	Overhead func(bw float64) float64
}

// factories is the registry: one constructor per name.
var factories = map[string]func(p Params) (schedule.Scheduler, error){
	"fifo": func(p Params) (schedule.Scheduler, error) {
		return schedule.NewFIFO(p.Sizes), nil
	},
	"p3": func(p Params) (schedule.Scheduler, error) {
		return schedule.NewP3(p.Sizes, p.partition()), nil
	},
	"tictac": func(p Params) (schedule.Scheduler, error) {
		return schedule.NewTicTac(p.Sizes), nil
	},
	"bytescheduler": func(p Params) (schedule.Scheduler, error) {
		return schedule.NewByteScheduler(p.Sizes, p.credit()), nil
	},
	"bytescheduler-tuned": func(p Params) (schedule.Scheduler, error) {
		b := schedule.NewByteScheduler(p.Sizes, p.credit())
		b.EnableTuning(DefaultMinCredit, DefaultMaxCredit, p.tunerSeed())
		return b, nil
	},
	"fusion": func(p Params) (schedule.Scheduler, error) {
		return schedule.NewFusion(p.Sizes, p.fusionBytes()), nil
	},
	"prophet": func(p Params) (schedule.Scheduler, error) {
		if p.Profile == nil {
			return nil, fmt.Errorf("strategy: prophet needs a profile (Params.Profile)")
		}
		bw := p.Bandwidth
		if bw == nil {
			bw = func() float64 { return 1e9 }
		}
		return schedule.NewProphet(schedule.NewPlanner(p.Profile, false), bw, p.Overhead)
	},
}

// Check reports whether a user-supplied name is a registered strategy.
func Check(name string) error {
	if _, ok := factories[name]; !ok {
		return fmt.Errorf("strategy: unknown strategy %q (known: %v)", name, Names())
	}
	return nil
}

// New builds a scheduler by name. Every strategy but Prophet slices the
// gradients itself and so needs their sizes; Prophet plans from its
// profile's.
func New(name string, p Params) (schedule.Scheduler, error) {
	if err := Check(name); err != nil {
		return nil, err
	}
	if name != "prophet" && len(p.Sizes) == 0 {
		return nil, fmt.Errorf("strategy: %s needs gradient sizes (Params.Sizes)", name)
	}
	return factories[name](p)
}

// Names returns the strategy names, sorted.
func Names() []string {
	out := make([]string, 0, len(factories))
	for name := range factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (p Params) partition() float64 {
	if p.Partition > 0 {
		return p.Partition
	}
	return DefaultPartition
}

func (p Params) credit() float64 {
	if p.Credit > 0 {
		return p.Credit
	}
	return DefaultCredit
}

func (p Params) fusionBytes() float64 {
	if p.FusionBytes > 0 {
		return p.FusionBytes
	}
	return DefaultFusionBytes
}

// tunerSeed derives the per-worker tuner stream (the same formula the
// cluster's TunedByteSchedulerFactory has always used, so pre-registry
// experiment results are reproduced exactly).
func (p Params) tunerSeed() uint64 {
	return p.Seed + uint64(p.Worker)*31 + 11
}
