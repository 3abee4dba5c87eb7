package cluster

import (
	"strings"
	"testing"

	"prophet/internal/drive"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/probe"
	"prophet/internal/probe/predict"
	"prophet/internal/profiler"
	"prophet/internal/strategy"
)

// pinnedConfig is the run the literals below were captured on: ResNet18
// (wire factor 2), default bucketing and jitter, 3 workers at 3 Gbps,
// 5 iterations, seed 5, decision log on.
func pinnedConfig(t *testing.T, name, transport string) Config {
	t.Helper()
	cfg := Config{
		Model:     model.WithWireFactor(model.ResNet18(), 2),
		Batch:     32,
		Workers:   3,
		Transport: transport,
		Uplink: func(int) netsim.LinkConfig {
			return netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(3)))
		},
		Iterations:     5,
		Seed:           5,
		RecordMessages: true,
	}
	// The profile is planned against the bucketing setDefaults picks.
	defaults := cfg
	defaults.Scheduler = FIFOFactory(cfg.Model)
	if err := defaults.setDefaults(); err != nil {
		t.Fatal(err)
	}
	prof, err := profiler.Run(profiler.Config{Model: cfg.Model, Batch: 32, Agg: defaults.Agg, Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheduler, err = ByNameTransport(name, defaults.Transport, cfg.Workers, cfg.Model,
		Options{Profile: prof.Profile(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestCollectivePinned pins, by value, every registry strategy on both
// collectives. The literals were captured from allreduce.Run at the commit
// before the collective became a wire under this package's worker (ada6940),
// so they hold the two legacy properties of that loop — jitter salt and
// bucket release order — for the strategies no golden or oracle covers: a
// flipped release order changes fifo's and tictac's send order, a different
// salt every duration.
func TestCollectivePinned(t *testing.T) {
	pinned := []struct {
		transport, strategy string
		duration            float64
		sends, messages     int
	}{
		{"ring", "bytescheduler", 3.126460506640296, 120, 120},
		{"ring", "bytescheduler-tuned", 3.543070215758794, 156, 156},
		{"ring", "fifo", 3.981070714083201, 310, 310},
		{"ring", "fusion", 2.01597738074975, 15, 15},
		{"ring", "p3", 4.578685628313232, 400, 400},
		{"ring", "prophet", 2.3228656283131017, 85, 85},
		{"ring", "tictac", 3.841165628313181, 310, 310},
		{"tree", "bytescheduler", 3.1264605066402598, 120, 120},
		{"tree", "bytescheduler-tuned", 3.5430702157587746, 156, 156},
		{"tree", "fifo", 3.9810707140831876, 310, 310},
		{"tree", "fusion", 2.0159773807497503, 15, 15},
		{"tree", "p3", 4.578685628313175, 400, 400},
		{"tree", "prophet", 2.322865628313103, 85, 85},
		{"tree", "tictac", 3.8411656283131776, 310, 310},
	}
	if want := 2 * len(strategy.Names()); len(pinned) != want {
		t.Fatalf("%d pinned rows for %d strategies × 2 collectives: pin the new strategy", len(pinned), len(strategy.Names()))
	}
	for _, p := range pinned {
		res, err := Run(pinnedConfig(t, p.strategy, p.transport))
		if err != nil {
			t.Fatalf("%s/%s: %v", p.transport, p.strategy, err)
		}
		if res.Duration != p.duration || res.Sends != p.sends || len(res.Messages) != p.messages {
			t.Errorf("%s/%s: duration %v, %d sends, %d messages; pinned %v, %d, %d",
				p.transport, p.strategy, res.Duration, res.Sends, len(res.Messages), p.duration, p.sends, p.messages)
		}
	}
}

// TestTransportMatrix is the simulator's counterpart of emu's
// TestValidateTransportMatrix: what has no physical meaning on a lockstep
// exchange is rejected by name, everything else runs, and the default
// transport is the parameter server, bit-identical to the commit before
// Config.Transport existed.
func TestTransportMatrix(t *testing.T) {
	// What a parameter server gives meaning to, by Config field.
	psOnly := []struct {
		field string
		set   func(*Config)
	}{
		{"Workers", func(c *Config) { c.Workers = 1 }},
		{"PSShards", func(c *Config) { c.PSShards = 2 }},
		{"ASP", func(c *Config) { c.ASP = true }},
		{"Faults", func(c *Config) {
			c.Faults, c.FaultPolicy = []WorkerFault{{Worker: 1, AtIteration: 2}}, FaultDrop
		}},
	}
	for _, o := range psOnly {
		cfg := pinnedConfig(t, "fifo", "ps")
		o.set(&cfg)
		if _, err := Run(cfg); err != nil {
			t.Errorf("ps with %s: %v", o.field, err)
		}
	}

	for _, transport := range []string{"ring", "tree"} {
		for _, o := range psOnly {
			cfg := pinnedConfig(t, "fifo", transport)
			o.set(&cfg)
			if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), o.field) {
				t.Errorf("%s with %s: error %v, want one naming the field", transport, o.field, err)
			}
		}
	}

	cfg := pinnedConfig(t, "fifo", "")
	cfg.Transport = "mesh"
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "transport") {
		t.Errorf("unknown transport: error %v", err)
	}

	// Captured from cluster.Run at ada6940, like TestCollectivePinned's.
	for _, p := range []struct {
		strategy string
		duration float64
		messages int
	}{
		{"fifo", 2.173271967636842, 310},
		{"prophet", 1.875131019041985, 76},
	} {
		for _, transport := range []string{"", "ps"} {
			res, err := Run(pinnedConfig(t, p.strategy, transport))
			if err != nil {
				t.Fatal(err)
			}
			if res.Duration != p.duration || len(res.Messages) != p.messages {
				t.Errorf("Transport %q, %s: duration %v, %d messages; the parameter server at the parent commit gave %v, %d",
					transport, p.strategy, res.Duration, len(res.Messages), p.duration, p.messages)
			}
		}
	}
}

// TestCollectiveResultShape pins what Result documents for a collective
// run on each backend — one lockstep timeline, one link's chunk steps, no
// downlink, no shard map — that observing and predicting it are passive,
// and that prediction follows the listener: a recorder alone plans nothing,
// an auditor beside it gets a window for every decision, and every window
// joins.
func TestCollectiveResultShape(t *testing.T) {
	for _, transport := range []string{"ring", "tree"} {
		t.Run(transport, func(t *testing.T) { checkCollectiveResultShape(t, transport) })
	}
}

func checkCollectiveResultShape(t *testing.T, transport string) {
	bare, err := Run(pinnedConfig(t, "prophet", transport))
	if err != nil {
		t.Fatal(err)
	}
	cfg := pinnedConfig(t, "prophet", transport)
	rec := probe.NewSpanRecorder()
	cfg.Observer, cfg.RecordLinks = rec, true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != bare.Duration || res.Sends != bare.Sends {
		t.Fatalf("observation is not passive: %v/%d observed, %v/%d bare", res.Duration, res.Sends, bare.Duration, bare.Sends)
	}
	if len(res.GPU) != 1 || res.Shards != 0 || res.ShardMap != nil || res.Workers != 3 {
		t.Fatalf("%d GPU timelines, %d shards, map %v, %d workers", len(res.GPU), res.Shards, res.ShardMap, res.Workers)
	}
	be, err := drive.BackendByName(transport)
	if err != nil {
		t.Fatal(err)
	}
	steps := res.Sends * be.Steps(cfg.Workers)
	if len(res.UpRecords) != 1 || len(res.UpRecords[0]) != steps || len(res.DownRecords) != 0 {
		t.Fatalf("link records: %d uplinks, %d chunk steps (want %d), %d downlinks",
			len(res.UpRecords), len(res.UpRecords[0]), steps, len(res.DownRecords))
	}
	for i, m := range res.Messages {
		if !m.Planned.IsZero() {
			t.Fatalf("decision %d carries a planned window with no plan listener attached", i)
		}
	}

	aud := predict.NewAuditor(predict.Options{})
	cfg.Observer = probe.NewMulti(probe.NewSpanRecorder(), aud)
	if res, err = Run(cfg); err != nil {
		t.Fatal(err)
	}
	if res.Duration != bare.Duration || res.Sends != bare.Sends {
		t.Fatalf("prediction is not passive: %v/%d audited, %v/%d bare", res.Duration, res.Sends, bare.Duration, bare.Sends)
	}
	for i, m := range res.Messages {
		if m.Planned.IsZero() {
			t.Fatalf("decision %d carries no planned window with an auditor attached", i)
		}
	}
	aud.Flush()
	if rep := aud.Report(); rep.Planned == 0 || rep.Joined != rep.Planned {
		t.Fatalf("%d planned windows, %d joined", rep.Planned, rep.Joined)
	}
}
