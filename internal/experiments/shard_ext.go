package experiments

import (
	"fmt"
	"io"

	"prophet/internal/cluster"
	"prophet/internal/experiments/runner"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/shard"
)

// ExtShardResult probes the deployment shape the paper's testbed omits:
// the parameter server range-sharded across several instances (the MXNet
// KVStore / BytePS production layout). The simulator sweeps 1/2/4 shards
// for FIFO, ByteScheduler, and Prophet under two bandwidth regimes —
// shard links at full single-PS speed (aggregate ingest scales with the
// shard count) and shard links scaled to 1/N (equal aggregate bandwidth,
// modeling one NIC split across shard processes). The live half — every
// policy at 2 shards trains to the single-PS trajectory bit for bit — is
// emu.TestShardedTrajectoryMatchesSinglePS.
//
// Expected shape: at equal aggregate bandwidth, extra shards add
// per-message overhead without adding capacity, and the parallel shard
// links dilute ordering pressure — Prophet's lead over FIFO narrows as the
// shard count grows. With full-speed shard links, communication shrinks
// relative to compute but the lead that remains is preserved, because the
// cross-shard gate keeps blocks in global priority order.
type ExtShardResult struct {
	Workers int
	// SimRows is the shards × regime sweep; rates are per-worker
	// samples/sec.
	SimRows []ExtShardSimRow
}

// ExtShardSimRow is one (shard count, bandwidth regime) simulator result.
type ExtShardSimRow struct {
	Shards int
	// EqualAggregate marks the 1/N-scaled regime.
	EqualAggregate bool
	FIFO, BS, Pro  float64
}

// Render implements Result.
func (r *ExtShardResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Extension — key-sharded multi-PS scaling (%d workers, ResNet50-class, 3 Gbps links)\n", r.Workers)
	fmt.Fprintf(w, "  simulator, per-worker samples/s; lead = Prophet vs FIFO\n")
	fmt.Fprintf(w, "  %-26s %7s %7s %7s %8s\n", "regime", "fifo", "bytesch", "prophet", "lead")
	for _, row := range r.SimRows {
		regime := fmt.Sprintf("%d shard(s), full-speed", row.Shards)
		if row.EqualAggregate {
			regime = fmt.Sprintf("%d shard(s), equal-agg", row.Shards)
		}
		fmt.Fprintf(w, "  %-26s %7.2f %7.2f %7.2f %+7.1f%%\n",
			regime, row.FIFO, row.BS, row.Pro, pct(row.Pro, row.FIFO))
	}
	fmt.Fprintf(w, "  sharding adds capacity only when shard links add bandwidth; at equal\n")
	fmt.Fprintf(w, "  aggregate bandwidth Prophet's lead narrows as shards multiply (parallel\n")
	fmt.Fprintf(w, "  links relax ordering pressure), while the cross-shard priority gate\n")
	fmt.Fprintf(w, "  keeps block order — and the remaining lead — intact at full link speed\n")
}

// extShard runs the extension.
func extShard(cfg Config) (*ExtShardResult, error) {
	const workers = 3
	s, err := prepare(model.ResNet50(), 32, cfg.Seed)
	if err != nil {
		return nil, err
	}
	link := linkMbps(3000)
	shardCounts := []int{1, 2, 4}
	runOne := func(factory cluster.SchedulerFactory, shards int, equalAgg bool) (float64, error) {
		ccfg := s.config(cfg, factory, link, workers)
		ccfg.PSShards, ccfg.ShardPlacement = shards, shard.SizeBalanced
		if equalAgg && shards > 1 {
			ccfg.ShardUplink = func(w, _ int) netsim.LinkConfig {
				lc := link(w)
				lc.Trace = netsim.Scale(lc.Trace, 1/float64(shards))
				return lc
			}
		}
		return rateOf(cfg, ccfg)
	}
	// Flatten the regime × shard-count grid into an explicit job list so
	// the rows can fan out across workers while keeping the output order.
	type simJob struct {
		shards   int
		equalAgg bool
	}
	var simJobs []simJob
	for _, regimeEqual := range []bool{false, true} {
		for _, n := range shardCounts {
			if regimeEqual && n == 1 {
				continue // identical to full-speed at 1 shard
			}
			simJobs = append(simJobs, simJob{shards: n, equalAgg: regimeEqual})
		}
	}
	simRows, err := runner.Map(cfg.Jobs, simJobs, func(_ int, j simJob) (ExtShardSimRow, error) {
		row := ExtShardSimRow{Shards: j.shards, EqualAggregate: j.equalAgg}
		var err error
		if row.FIFO, err = runOne(s.fifo(), j.shards, j.equalAgg); err != nil {
			return row, fmt.Errorf("ext-shard: fifo %d shards: %w", j.shards, err)
		}
		if row.BS, err = runOne(s.byteScheduler(), j.shards, j.equalAgg); err != nil {
			return row, fmt.Errorf("ext-shard: bytescheduler %d shards: %w", j.shards, err)
		}
		if row.Pro, err = runOne(s.prophet(), j.shards, j.equalAgg); err != nil {
			return row, fmt.Errorf("ext-shard: prophet %d shards: %w", j.shards, err)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &ExtShardResult{Workers: workers, SimRows: simRows}, nil
}
