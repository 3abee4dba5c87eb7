package experiments

import (
	"fmt"
	"io"
	"strings"

	"prophet/internal/cluster"
	"prophet/internal/experiments/runner"
	"prophet/internal/model"
	"prophet/internal/strategy"
)

// ExtStrategiesResult sweeps every strategy in the shared registry —
// including TicTac's op-level priority order, which the paper discusses but
// its testbed comparison omits — over one simulated configuration. It is
// the registry's end-to-end exercise: each row is built by registry name
// through cluster.ByName, as prophet-run's -policy flag builds its
// strategy through ByNameTransport, so a strategy registered in
// internal/strategy lands here (and in both binaries) with no further
// wiring.
type ExtStrategiesResult struct {
	Workers int
	Rows    []ExtStrategiesRow
}

// ExtStrategiesRow is one strategy's steady-state rate.
type ExtStrategiesRow struct {
	Strategy string
	// Rate is per-worker samples/sec.
	Rate float64
}

// Render implements Result.
func (r *ExtStrategiesResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Extension — full strategy registry on one configuration (%d workers, ResNet50 bs32, 3 Gbps)\n", r.Workers)
	fmt.Fprintf(w, "  %-20s %10s %8s\n", "strategy", "samples/s", "vs fifo")
	var fifo, tictac float64
	for _, row := range r.Rows {
		switch row.Strategy {
		case "fifo":
			fifo = row.Rate
		case "tictac":
			tictac = row.Rate
		}
	}
	var beats, trails []string
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-20s %10.2f %+7.1f%%\n", row.Strategy, row.Rate, pct(row.Rate, fifo))
		switch {
		case row.Rate < tictac:
			beats = append(beats, row.Strategy)
		case row.Rate > tictac:
			trails = append(trails, row.Strategy)
		}
	}
	fmt.Fprintf(w, "  every row resolves through the shared name→factory registry; TicTac's\n")
	fmt.Fprintf(w, "  tensor-count priority beats %s\n", strings.Join(beats, ", "))
	fmt.Fprintf(w, "  and trails %s\n", strings.Join(trails, ", "))
}

// extStrategies runs the extension.
func extStrategies(cfg Config) (*ExtStrategiesResult, error) {
	const workers = 3
	out := &ExtStrategiesResult{Workers: workers}

	s, err := prepare(model.ResNet50(), 32, cfg.Seed)
	if err != nil {
		return nil, err
	}
	link := linkMbps(3000)
	names := strategy.Names()
	rows, err := runner.Map(cfg.Jobs, names, func(_ int, name string) (ExtStrategiesRow, error) {
		factory, err := cluster.ByName(name, s.wire, cluster.Options{
			Seed:    cfg.Seed,
			Profile: s.prof.Profile(),
		})
		if err != nil {
			return ExtStrategiesRow{}, fmt.Errorf("ext-strategies: %s: %w", name, err)
		}
		rate, err := s.rate(cfg, factory, link, workers)
		if err != nil {
			return ExtStrategiesRow{}, fmt.Errorf("ext-strategies: %s: %w", name, err)
		}
		return ExtStrategiesRow{Strategy: name, Rate: rate}, nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = rows
	return out, nil
}
