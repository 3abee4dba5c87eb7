package cluster

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/schedule"
	"prophet/internal/shard"
	"prophet/internal/sim"
)

// shardedConfig is smallConfig with PSShards set.
func shardedConfig(t *testing.T, factory SchedulerFactory, gbps float64, shards int, placement shard.Placement) Config {
	t.Helper()
	cfg := smallConfig(t, factory, gbps)
	cfg.PSShards = shards
	cfg.ShardPlacement = placement
	return cfg
}

func TestShardedRunCompletesAndConservesBytes(t *testing.T) {
	m := model.ResNet18()
	factories := map[string]SchedulerFactory{
		"fifo":    FIFOFactory(m),
		"prophet": prophetFactory(t, m, 32),
	}
	wantBytes := m.TotalBytes() * 6 // per direction per worker, 6 iters
	for name, f := range factories {
		for _, shards := range []int{2, 4} {
			for _, placement := range []shard.Placement{shard.RoundRobin, shard.SizeBalanced} {
				t.Run(fmt.Sprintf("%s/%d/%s", name, shards, placement), func(t *testing.T) {
					res, rec := runRecorded(t, shardedConfig(t, f, 5, shards, placement))
					// Per-lane pushed bytes: lane s of worker w is its uplink
					// to shard s.
					laneUp := make(map[[2]int]float64)
					for _, sp := range rec.Spans() {
						laneUp[[2]int{sp.Worker, sp.Lane}] += sp.Bytes
					}
					if res.Iters.Count() != 6 {
						t.Fatalf("completed %d iterations, want 6", res.Iters.Count())
					}
					if res.Shards != shards {
						t.Fatalf("Result.Shards = %d, want %d", res.Shards, shards)
					}
					for w := 0; w < res.Workers; w++ {
						up := rec.Rate(w).TotalBytes()
						if math.Abs(up-wantBytes) > 1 {
							t.Errorf("worker %d pushed %.0f bytes, want %.0f", w, up, wantBytes)
						}
						down := recordBytes(res.DownRecords[w])
						if math.Abs(down-wantBytes) > 1 {
							t.Errorf("worker %d pulled %.0f bytes, want %.0f", w, down, wantBytes)
						}
						// Per-shard lanes must sum to the aggregate, and each
						// shard's share must match the key→shard map's load.
						var sumUp float64
						for s := 0; s < shards; s++ {
							sh := laneUp[[2]int{w, s}]
							sumUp += sh
							want := res.ShardMap.Load(s) * 6
							if math.Abs(sh-want) > 1 {
								t.Errorf("worker %d shard %d pushed %.0f bytes, want %.0f (map load)", w, s, sh, want)
							}
						}
						if math.Abs(sumUp-up) > 1 {
							t.Errorf("worker %d shard lanes sum %.0f != aggregate %.0f", w, sumUp, up)
						}
					}
				})
			}
		}
	}
}

// TestShardedEqualAggregateBandwidth splits one NIC across the shards via
// netsim.Scale, so total capacity matches the single-PS run.
func TestShardedEqualAggregateBandwidth(t *testing.T) {
	m := model.ResNet18()
	const shards = 4
	cfg := shardedConfig(t, FIFOFactory(m), 5, shards, shard.SizeBalanced)
	cfg.ShardUplink = func(w, _ int) netsim.LinkConfig {
		lc := cfg.Uplink(w)
		lc.Trace = netsim.Scale(lc.Trace, 1.0/shards)
		return lc
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters.Count() != 6 {
		t.Fatalf("completed %d iterations, want 6", res.Iters.Count())
	}

	// At equal aggregate bandwidth a sharded run can't be dramatically
	// faster than the single link (it pays per-message overhead per shard);
	// allow a broad band to avoid calibration coupling.
	single, err := Run(smallConfig(t, FIFOFactory(m), 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration < 0.8*single.Duration {
		t.Errorf("sharded run at equal aggregate bandwidth took %.3fs, single-PS %.3fs — sharding should not create bandwidth", res.Duration, single.Duration)
	}
}

func TestShardedDeterminism(t *testing.T) {
	m := model.ResNet18()
	run := func() *Result {
		res, err := Run(shardedConfig(t, prophetFactory(t, m, 32), 5, 4, shard.SizeBalanced))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Duration != b.Duration {
		t.Fatalf("sharded run not deterministic: %v vs %v", a.Duration, b.Duration)
	}
	for i := range a.Iters.Ends {
		if a.Iters.Ends[i] != b.Iters.Ends[i] {
			t.Fatalf("iteration %d end differs: %v vs %v", i, a.Iters.Ends[i], b.Iters.Ends[i])
		}
	}
}

// TestSingleShardMatchesUnsharded pins the invariant that PSShards=1 runs
// the exact pre-sharding code path: same events, same clock.
func TestSingleShardMatchesUnsharded(t *testing.T) {
	m := model.ResNet18()
	base, err := Run(smallConfig(t, prophetFactory(t, m, 32), 5))
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(shardedConfig(t, prophetFactory(t, m, 32), 5, 1, shard.SizeBalanced))
	if err != nil {
		t.Fatal(err)
	}
	if base.Duration != one.Duration {
		t.Fatalf("PSShards=1 changed the clock: %v vs %v", base.Duration, one.Duration)
	}
}

// parseShardTag extracts (seq, shard) from a multi-shard uplink record tag
// of the form "<label>#m<seq>.p<prio>.s<shard>".
func parseShardTag(t *testing.T, tag string) (seq, sh int, ok bool) {
	t.Helper()
	i := strings.LastIndex(tag, "#m")
	if i < 0 {
		return 0, 0, false
	}
	var prio int
	if _, err := fmt.Sscanf(tag[i:], "#m%d.p%d.s%d", &seq, &prio, &sh); err != nil {
		t.Fatalf("malformed shard tag %q: %v", tag, err)
	}
	return seq, sh, true
}

// TestCrossShardPriorityInvariant asserts the tentpole scheduling property
// with 4 shards: scheduler messages are fetched one at a time in global
// priority order, and no shard starts message k+1's bytes before every
// sub-message of message k has started. In trace terms: the earliest start
// among message k+1's per-shard records is >= the latest start among
// message k's.
func TestCrossShardPriorityInvariant(t *testing.T) {
	m := model.ResNet18()
	for name, f := range map[string]SchedulerFactory{
		"fifo":          FIFOFactory(m),
		"bytescheduler": ByteSchedulerFactory(m, 8e6),
		"prophet":       prophetFactory(t, m, 32),
	} {
		t.Run(name, func(t *testing.T) {
			cfg := shardedConfig(t, f, 5, 4, shard.SizeBalanced)
			cfg.RecordLinks = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for w, recs := range res.UpRecords {
				// minStart/maxStart per scheduler-message fetch sequence.
				minStart := map[int]float64{}
				maxStart := map[int]float64{}
				shardsSeen := map[int]bool{}
				maxSeq := -1
				for _, rec := range recs {
					seq, sh, ok := parseShardTag(t, rec.Tag)
					if !ok {
						t.Fatalf("worker %d: uplink record %q lacks shard tag in a 4-shard run", w, rec.Tag)
					}
					shardsSeen[sh] = true
					if _, seen := minStart[seq]; !seen || rec.Start < minStart[seq] {
						minStart[seq] = rec.Start
					}
					if rec.Start > maxStart[seq] {
						maxStart[seq] = rec.Start
					}
					if seq > maxSeq {
						maxSeq = seq
					}
				}
				if len(shardsSeen) != 4 {
					t.Errorf("worker %d: traffic on %d shards, want 4", w, len(shardsSeen))
				}
				prev := -1
				for seq := 0; seq <= maxSeq; seq++ {
					if _, ok := minStart[seq]; !ok {
						continue // message had no bytes (all-empty split can't happen, but be safe)
					}
					if prev >= 0 && minStart[seq] < maxStart[prev] {
						t.Fatalf("worker %d: message %d started at %.9f before message %d finished starting at %.9f — cross-shard priority violated",
							w, seq, minStart[seq], prev, maxStart[prev])
					}
					prev = seq
				}
				if maxSeq < 10 {
					t.Errorf("worker %d: only %d scheduler messages traced; invariant check is vacuous", w, maxSeq+1)
				}
			}
		})
	}
}

// scribbler overwrites every message's pieces in OnSent before passing it
// on: the Scheduler contract hands the pieces back to the scheduler there,
// so it may.
type scribbler struct{ schedule.Scheduler }

func (s scribbler) OnSent(msg schedule.Message, start, end float64) {
	for i := range msg.Pieces {
		msg.Pieces[i] = schedule.Piece{}
	}
	s.Scheduler.OnSent(msg, start, end)
}

// TestPiecesReturnToSchedulerAtOnSent pins the piece ownership contract on
// the PS wire. A message's last uplink completion fires OnSent (inside
// drive.Driver.Completed) before the PS books the pushed pieces, so the
// pieces the PS reads must be the driver's copy, not the scheduler's slice:
// with one shard there is no split to copy them, and a scheduler reusing its
// pieces at OnSent would starve the pulls. Runs with and without the
// scribbler must match, on one shard and on four.
func TestPiecesReturnToSchedulerAtOnSent(t *testing.T) {
	m := model.ResNet18()
	for _, name := range []string{"fifo", "p3", "bytescheduler"} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/%d", name, shards), func(t *testing.T) {
				factory := mustByName(name, m, Options{})
				cfg := shardedConfig(t, factory, 5, shards, shard.RoundRobin)
				want, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Scheduler = func(w int, eng *sim.Engine, up *netsim.Link) schedule.Scheduler {
					return scribbler{factory(w, eng, up)}
				}
				got, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("a scheduler reusing its pieces at OnSent changed the run: %v vs %v",
						got.Iters.Ends, want.Iters.Ends)
				}
			})
		}
	}
}
