package experiments

import (
	"fmt"
	"io"

	"prophet/internal/cluster"
	"prophet/internal/drive"
	"prophet/internal/experiments/runner"
	"prophet/internal/model"
	"prophet/internal/probe"
	"prophet/internal/probe/attrib"
)

// ExtTransportResult compares the pluggable transports under the drive
// layer — PS push/pull vs ring vs tree collectives — per model with the
// Prophet strategy held fixed, so the deltas isolate the transport. Each
// run carries a probe SpanRecorder and the stall-attribution columns show
// *where* the transports differ: the PS path pays an ack (the pull), the
// collectives pay lockstep chunk steps inside transmit, and the wait
// columns show how well Prophet's blocks hide either cost behind compute.
type ExtTransportResult struct {
	Workers int
	Models  []ExtTransportModel
}

// ExtTransportModel is one model's transport comparison.
type ExtTransportModel struct {
	Model string
	Batch int
	Rows  []ExtTransportRow
}

// ExtTransportRow is one (model, transport) run.
type ExtTransportRow struct {
	Transport string
	// Rate is the steady-state training rate, samples/s per worker.
	Rate float64
	// Mean holds worker 0's steady-state per-gradient component means.
	Mean attrib.Components
}

// Render implements Result.
func (r *ExtTransportResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Extension — transport comparison under the drive layer (Prophet, %d workers, 3 Gbps/link)\n", r.Workers)
	for _, m := range r.Models {
		fmt.Fprintf(w, "  %s bs%d\n", m.Model, m.Batch)
		fmt.Fprintf(w, "    %-6s %11s %7s %9s %9s %9s %9s %6s\n",
			"xport", "rate", "vs ps", "gen ms", "wait ms", "tx ms", "ack ms", "wait%")
		var ps float64
		for _, row := range m.Rows {
			if row.Transport == "ps" {
				ps = row.Rate
			}
		}
		for _, row := range m.Rows {
			c := row.Mean
			waitShare := 0.0
			if c.Completion > 0 {
				waitShare = 100 * c.Wait() / c.Completion
			}
			delta := "—"
			if row.Transport != "ps" && ps > 0 {
				delta = fmt.Sprintf("%+.1f%%", pct(row.Rate, ps))
			}
			fmt.Fprintf(w, "    %-6s %9.2f/s %7s %9.2f %9.2f %9.2f %9.2f %5.1f%%\n",
				row.Transport, row.Rate, delta, 1e3*c.Generation, 1e3*c.Wait(),
				1e3*c.Transmit, 1e3*c.Ack, waitShare)
		}
	}
	fmt.Fprintf(w, "  same strategy, same drive layer, same probe stream on every row. the PS\n")
	fmt.Fprintf(w, "  rows pay ack (the pull); the collective rows pay lockstep chunk steps\n")
	fmt.Fprintf(w, "  inside transmit and ack exactly zero. wait%% = (prio + bw) / completion.\n")
}

// extTransport runs the comparison.
func extTransport(cfg Config) (*ExtTransportResult, error) {
	const workers = 3
	out := &ExtTransportResult{Workers: workers}

	type job struct {
		base  *model.Model
		batch int
	}
	jobs := []job{
		{model.ResNet18(), 32},
		{model.ResNet50(), 64},
		{model.InceptionV3(), 64},
		{model.VGG19(), 64},
	}
	link := linkMbps(3000)
	for _, j := range jobs {
		s, err := prepare(j.base, j.batch, cfg.Seed)
		if err != nil {
			return nil, err
		}
		rows, err := runner.Map(cfg.Jobs, drive.BackendNames(), func(_ int, transport string) (ExtTransportRow, error) {
			factory, err := cluster.ByNameTransport("prophet", transport, workers, s.wire, cluster.Options{
				Seed:    cfg.Seed,
				Profile: s.prof.Profile(),
			})
			if err != nil {
				return ExtTransportRow{}, fmt.Errorf("ext-transport: %s/%s: %w", j.base.Name, transport, err)
			}
			c := s.config(cfg, factory, link, workers)
			rec := probe.NewSpanRecorder()
			c.Transport, c.Observer = transport, rec
			res, err := cluster.Run(c)
			if err != nil {
				return ExtTransportRow{}, fmt.Errorf("ext-transport: %s/%s: %w", j.base.Name, transport, err)
			}
			return ExtTransportRow{
				Transport: transport,
				Rate:      res.Rate(cfg.Warmup),
				Mean:      attrib.Analyze(rec, 3).Mean(0, cfg.Warmup),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		out.Models = append(out.Models, ExtTransportModel{
			Model: j.base.Name,
			Batch: j.batch,
			Rows:  rows,
		})
	}
	return out, nil
}
