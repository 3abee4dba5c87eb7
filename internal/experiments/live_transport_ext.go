package experiments

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"prophet/internal/core"
	"prophet/internal/emu"
	"prophet/internal/nn"
	"prophet/internal/probe"
	"prophet/internal/probe/attrib"
)

// mlpProfile is the explicit Prophet profile the live comparison pins its
// plan with: tensor sizes from the MLP itself, generation in backward order
// one unit apart, so no wall-clock profiling iteration feeds the planner.
func mlpProfile(layers []int, seed uint64) (*core.Profile, error) {
	m := nn.NewMLP(layers, seed)
	sizes := make([]float64, m.NumTensors())
	gen := make([]float64, m.NumTensors())
	for idx, t := range m.Tensors() {
		sizes[idx] = float64(8 * t.Elems)
		gen[idx] = float64(m.NumTensors() - idx)
	}
	return core.NewProfile(gen, sizes, 1e-6)
}

// ExtLiveTransportResult compares the live wire engines under the
// emulation's drive layer — dedicated PS sockets, the multiplexed PS pipe,
// and the peer-to-peer ring/tree collectives — on one real training job
// with the strategy held fixed. The rows isolate the transport: decisions
// replay before any byte moves, so the push order is identical on every
// row, and the attribution columns show where the wall time goes instead —
// the PS rows pay an ack (the pull leg), the collective rows play lockstep
// chunk steps inside transmit and their ack is exactly zero.
type ExtLiveTransportResult struct {
	Workers, Iterations int
	Rows                []ExtLiveTransportRow
	// DecisionsMatch reports the scheduler decision stream (drive.Record
	// logs) was bit-identical on every row.
	DecisionsMatch bool
}

// ExtLiveTransportRow is one live run over one transport.
type ExtLiveTransportRow struct {
	Transport string
	// Wall is the whole run's wall time; T0RTT the mean tensor-0 round
	// trip (backward start → aggregated gradient back on the worker).
	Wall, T0RTT time.Duration
	// Mean holds worker 0's per-gradient attribution means (warmup
	// excluded); Ack is exactly 0 on the collective rows.
	Mean attrib.Components
	// PushOrder is the last iteration's tensor completion order —
	// transport-invariant by construction.
	PushOrder []int
}

// Render implements Result.
func (r *ExtLiveTransportResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Extension — live transport comparison over real sockets (prophet, %d workers, %d iterations)\n",
		r.Workers, r.Iterations)
	fmt.Fprintf(w, "  %-8s %9s %9s %9s %9s %9s %9s\n",
		"xport", "wall ms", "t0 ms", "gen ms", "wait ms", "tx ms", "ack ms")
	for _, row := range r.Rows {
		c := row.Mean
		fmt.Fprintf(w, "  %-8s %9.1f %9.1f %9.2f %9.2f %9.2f %9.2f\n",
			row.Transport, float64(row.Wall.Microseconds())/1e3, float64(row.T0RTT.Microseconds())/1e3,
			1e3*c.Generation, 1e3*c.Wait(), 1e3*c.Transmit, 1e3*c.Ack)
	}
	fmt.Fprintf(w, "  push order: %v  decisions bit-identical on every row: %v\n",
		r.Rows[0].PushOrder, r.DecisionsMatch)
	fmt.Fprintf(w, "  real frames on real connections on every row: the PS rows pull their\n")
	fmt.Fprintf(w, "  aggregates back (ack > 0); the collective rows finish each op with the\n")
	fmt.Fprintf(w, "  mean already in place (ack = 0), paying the chunk schedule in transmit.\n")
}

// extLiveTransport runs the comparison. Runs are wall-clock timed, so the
// rows run serially regardless of Config.Jobs.
func extLiveTransport(cfg Config) (*ExtLiveTransportResult, error) {
	const workers = 4 // power of two so the tree schedule applies
	out := &ExtLiveTransportResult{Workers: workers, Iterations: cfg.Iterations, DecisionsMatch: true}

	// An explicit profile pins the prophet plan: no wall-clock profiling
	// iteration feeds the planner, so the decision stream is a pure function
	// of the model and the rows are comparable bit-for-bit.
	layers := []int{16, 64, 64, 4}
	prof, err := mlpProfile(layers, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("ext-live-transport: %w", err)
	}

	cells := []struct {
		key       string
		transport string
		mux       bool
	}{
		{"ps", "ps", false},
		{"ps-mux", "ps", true},
		{"ring", "ring", false},
		{"tree", "tree", false},
	}
	var refMessages any
	for i, cell := range cells {
		rec := probe.NewSpanRecorder()
		rec.SetIterationHint(cfg.Iterations)
		res, err := emu.Run(emu.Config{
			Workers:              workers,
			Layers:               layers,
			Dataset:              nn.Blobs(2048, 16, 4, cfg.Seed),
			Batch:                32,
			Iterations:           cfg.Iterations,
			LR:                   0.1,
			Policy:               "prophet",
			Profile:              prof,
			BandwidthBytesPerSec: 8e6,
			Seed:                 cfg.Seed,
			Mux:                  cell.mux,
			Transport:            cell.transport,
			Observer:             rec,
		})
		if err != nil {
			return nil, fmt.Errorf("ext-live-transport: %s: %w", cell.key, err)
		}
		if i == 0 {
			refMessages = res.Messages
		} else if !reflect.DeepEqual(refMessages, res.Messages) {
			out.DecisionsMatch = false
		}
		var t0 time.Duration
		for _, d := range res.Tensor0RoundTrip {
			t0 += d
		}
		if n := len(res.Tensor0RoundTrip); n > 0 {
			t0 /= time.Duration(n)
		}
		out.Rows = append(out.Rows, ExtLiveTransportRow{
			Transport: cell.key,
			Wall:      res.Duration,
			T0RTT:     t0,
			Mean:      attrib.Analyze(rec, 3).Mean(0, cfg.Warmup),
			PushOrder: res.PushOrder,
		})
	}
	if !out.DecisionsMatch {
		return nil, fmt.Errorf("ext-live-transport: decision stream diverged across transports")
	}
	return out, nil
}
