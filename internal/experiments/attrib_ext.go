package experiments

import (
	"fmt"
	"io"

	"prophet/internal/cluster"
	"prophet/internal/experiments/runner"
	"prophet/internal/model"
	"prophet/internal/probe/attrib"
	"prophet/internal/strategy"
)

// ExtAttribResult decomposes gradient completion time per strategy: every
// registry strategy runs the same simulated configuration with a probe
// SpanRecorder attached, and the analyzer splits each gradient's completion
// into generation / priority-wait / bandwidth-wait / transmit / ack (the
// Fig. 11 breakdown, extended to all five components). The interesting
// column is the wait share: scheduling strategies differ almost entirely in
// how long gradients sit between generation and the wire.
type ExtAttribResult struct {
	Workers int
	Rows    []ExtAttribRow
}

// ExtAttribRow is one strategy's worker-0 steady-state mean decomposition.
type ExtAttribRow struct {
	Strategy string
	// Mean holds the per-gradient component means in seconds.
	Mean attrib.Components
	// Gradients is how many complete lifecycles were attributed.
	Gradients int
}

// Render implements Result.
func (r *ExtAttribResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Extension — stall attribution per strategy (%d workers, ResNet18 bs32, 3 Gbps, worker-0 means)\n", r.Workers)
	fmt.Fprintf(w, "  %-20s %9s %9s %9s %9s %9s %11s %6s\n",
		"strategy", "gen ms", "prio ms", "bw ms", "tx ms", "ack ms", "total ms", "wait%")
	for _, row := range r.Rows {
		m := row.Mean
		waitShare := 0.0
		if m.Completion > 0 {
			waitShare = 100 * m.Wait() / m.Completion
		}
		fmt.Fprintf(w, "  %-20s %9.2f %9.2f %9.2f %9.2f %9.2f %11.2f %5.1f%%\n",
			row.Strategy, 1e3*m.Generation, 1e3*m.PriorityWait, 1e3*m.BandwidthWait,
			1e3*m.Transmit, 1e3*m.Ack, 1e3*m.Completion, waitShare)
	}
	fmt.Fprintf(w, "  components sum to completion per gradient; wait%% = (prio + bw) / total.\n")
	fmt.Fprintf(w, "  on one saturated uplink the pre-wire wait is all bandwidth wait (the lane\n")
	fmt.Fprintf(w, "  is never idle while a gradient is held): FIFO's head-of-line blocking is\n")
	fmt.Fprintf(w, "  the largest bw-wait column, Prophet's window-fitted blocks the smallest\n")
}

// extAttrib runs the extension.
func extAttrib(cfg Config) (*ExtAttribResult, error) {
	const workers = 3
	out := &ExtAttribResult{Workers: workers}

	s, err := prepare(model.ResNet18(), 32, cfg.Seed)
	if err != nil {
		return nil, err
	}
	link := linkMbps(3000)
	names := strategy.Names()
	rows, err := runner.Map(cfg.Jobs, names, func(_ int, name string) (ExtAttribRow, error) {
		factory, err := cluster.ByName(name, s.wire, cluster.Options{
			Seed:    cfg.Seed,
			Profile: s.prof.Profile(),
		})
		if err != nil {
			return ExtAttribRow{}, fmt.Errorf("ext-attrib: %s: %w", name, err)
		}
		_, rec, err := s.runRecorded(cfg, factory, link, workers)
		if err != nil {
			return ExtAttribRow{}, fmt.Errorf("ext-attrib: %s: %w", name, err)
		}
		rep := attrib.Analyze(rec, 3)
		n := 0
		for _, c := range rep.PerGrad {
			if c.Worker == 0 && c.Iter >= cfg.Warmup {
				n++
			}
		}
		return ExtAttribRow{
			Strategy:  name,
			Mean:      rep.Mean(0, cfg.Warmup),
			Gradients: n,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = rows
	return out, nil
}
