package experiments

import (
	"fmt"
	"io"

	"prophet/internal/cluster"
	"prophet/internal/experiments/runner"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/workload"
)

// ExtASPResult covers the paper's future-work direction 1: the stepwise
// pattern — a property of backward propagation and the aggregation layer —
// is unchanged under Asynchronous Parallel training, so Prophet's block
// scheduling still applies; and ASP decouples stragglers that BSP lets
// bind the whole cluster.
type ExtASPResult struct {
	// BSPHetero and ASPHetero are worker 0's (fast link) rates with one
	// straggler in the cluster.
	BSPHetero, ASPHetero float64
	// ASPFIFO and ASPProphet compare schedulers under ASP on homogeneous
	// constrained links.
	ASPFIFO, ASPProphet float64
}

// Render implements Result.
func (r *ExtASPResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Extension — ASP (paper future work 1), ResNet50 bs64\n")
	fmt.Fprintf(w, "  straggler cluster, fast worker's rate: BSP %6.2f → ASP %6.2f samples/s\n", r.BSPHetero, r.ASPHetero)
	fmt.Fprintf(w, "  under ASP at 2 Gbps: fifo %6.2f vs prophet %6.2f samples/s (%+.1f%%)\n",
		r.ASPFIFO, r.ASPProphet, pct(r.ASPProphet, r.ASPFIFO))
	fmt.Fprintf(w, "  the stepwise pattern is produced by backward propagation, so Prophet's\n")
	fmt.Fprintf(w, "  blocks keep their value without the BSP barrier\n")
}

// extASP runs the extension.
func extASP(cfg Config) (*ExtASPResult, error) {
	s, err := prepare(model.ResNet50(), 64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	runASP := func(factory cluster.SchedulerFactory, link func(int) netsim.LinkConfig, asp bool) (float64, error) {
		c := s.config(cfg, factory, link, 3)
		c.ASP = asp
		return rateOf(cfg, c)
	}
	type job struct {
		factory cluster.SchedulerFactory
		link    func(int) netsim.LinkConfig
		asp     bool
	}
	jobs := []job{
		{s.prophet(), heteroLink, false},
		{s.prophet(), heteroLink, true},
		{s.fifo(), linkMbps(2000), true},
		{s.prophet(), linkMbps(2000), true},
	}
	rates, err := runner.Map(cfg.Jobs, jobs, func(_ int, j job) (float64, error) {
		return runASP(j.factory, j.link, j.asp)
	})
	if err != nil {
		return nil, err
	}
	return &ExtASPResult{
		BSPHetero: rates[0], ASPHetero: rates[1],
		ASPFIFO: rates[2], ASPProphet: rates[3],
	}, nil
}

// ExtHardwareResult covers future-work direction 2 (more GPU types): on
// p3-class (V100) nodes the backward pass shrinks ~4×, so the same network
// that was comfortable for M60 nodes becomes the bottleneck — and
// scheduling matters at bandwidths where it previously did not.
type ExtHardwareResult struct {
	// Rates at 4.5 Gbps per worker, ResNet50 bs64.
	M60FIFO, M60Prophet, V100FIFO, V100Prophet float64
}

// Render implements Result.
func (r *ExtHardwareResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Extension — p3-class GPUs (paper future work 2), ResNet50 bs64 at 4.5 Gbps\n")
	fmt.Fprintf(w, "  M60-class:  fifo %7.2f vs prophet %7.2f samples/s (%+.1f%%)\n",
		r.M60FIFO, r.M60Prophet, pct(r.M60Prophet, r.M60FIFO))
	fmt.Fprintf(w, "  V100-class: fifo %7.2f vs prophet %7.2f samples/s (%+.1f%%)\n",
		r.V100FIFO, r.V100Prophet, pct(r.V100Prophet, r.V100FIFO))
	fmt.Fprintf(w, "  faster compute raises the relative value of communication scheduling\n")
}

// ExtTransformerResult runs the schedulers on a BERT-base-like encoder —
// a deliberate boundary probe. The 23M-parameter embedding table is tensor
// 0: the highest-priority tensor is also ~20% of the model, and the next
// forward pass cannot start until ALL of it has been pushed, aggregated,
// and pulled. No ordering trick shortens that serial tail; what helps is
// fine-grained partitioning that pipelines the giant tensor's push with
// its own pull — P3's regime. Prophet's design (whole-tensor pulls in the
// forward phase) was shaped by CNN tensor sizes and gains nothing here, a
// limitation worth knowing.
type ExtTransformerResult struct {
	FIFO, P3Rate, BS, Prophet float64
}

// Render implements Result.
func (r *ExtTransformerResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Extension — transformer-base (110M params, embedding-first), bs32 at 10 Gbps\n")
	fmt.Fprintf(w, "  fifo %6.2f   p3 %6.2f   bytescheduler %6.2f   prophet %6.2f samples/s\n",
		r.FIFO, r.P3Rate, r.BS, r.Prophet)
	fmt.Fprintf(w, "  boundary result: when one tensor is ~20%% of the model AND first in\n")
	fmt.Fprintf(w, "  priority, its serial push+pull tail dominates every iteration; P3's\n")
	fmt.Fprintf(w, "  fine partitions pipeline that tail best, and Prophet's stepwise blocks\n")
	fmt.Fprintf(w, "  buy nothing — the paper's design targets CNN-sized tensors\n")
}

// extTransformer runs the extension.
func extTransformer(cfg Config) (*ExtTransformerResult, error) {
	s, err := prepare(model.TransformerBase(), 32, cfg.Seed)
	if err != nil {
		return nil, err
	}
	link := linkMbps(10000)
	factories := []cluster.SchedulerFactory{s.fifo(), s.p3(), s.byteScheduler(), s.prophet()}
	rates, err := runner.Map(cfg.Jobs, factories, func(_ int, f cluster.SchedulerFactory) (float64, error) {
		return s.rate(cfg, f, link, 3)
	})
	if err != nil {
		return nil, err
	}
	return &ExtTransformerResult{FIFO: rates[0], P3Rate: rates[1], BS: rates[2], Prophet: rates[3]}, nil
}

// ExtShapesResult asks how Prophet's benefit depends on the tensor-size
// distribution of the architecture, using synthetic workloads: uniform
// (transformer-block-like), tail-heavy (VGG-like fc giants at the back),
// front-heavy (large embeddings up front), and alternating (conv/BN
// pairs).
type ExtShapesResult struct {
	Rows []ExtShapesRow
}

// ExtShapesRow is one synthetic tensor-size distribution.
type ExtShapesRow struct {
	Shape         string
	FIFO, Prophet float64
}

// Render implements Result.
func (r *ExtShapesResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Extension — synthetic tensor-size distributions (40 tensors, 25M params, 2 Gbps)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-12s fifo %6.2f vs prophet %6.2f samples/s (%+.1f%%)\n",
			row.Shape, row.FIFO, row.Prophet, pct(row.Prophet, row.FIFO))
	}
	fmt.Fprintf(w, "  Prophet's gain holds across shapes (double digits at this balance);\n")
	fmt.Fprintf(w, "  it is largest when tensors are uniform — every block fits its window\n")
	fmt.Fprintf(w, "  cleanly — and smallest for alternating big/tiny pairs, where bundling\n")
	fmt.Fprintf(w, "  granularity is hardest to match to the release pattern\n")
}

// extShapes runs the extension.
func extShapes(cfg Config) (*ExtShapesResult, error) {
	shapes := []workload.Shape{workload.Uniform, workload.TailHeavy, workload.FrontHeavy, workload.Alternating}
	rows, err := runner.Map(cfg.Jobs, shapes, func(_ int, shape workload.Shape) (ExtShapesRow, error) {
		base, err := workload.Synthetic(shape, 40, 25_000_000, cfg.Seed)
		if err != nil {
			return ExtShapesRow{}, err
		}
		s, err := prepare(base, 64, cfg.Seed)
		if err != nil {
			return ExtShapesRow{}, err
		}
		link := linkMbps(2000)
		fifoRate, err := s.rate(cfg, s.fifo(), link, 3)
		if err != nil {
			return ExtShapesRow{}, err
		}
		proRate, err := s.rate(cfg, s.prophet(), link, 3)
		if err != nil {
			return ExtShapesRow{}, err
		}
		return ExtShapesRow{Shape: shape.String(), FIFO: fifoRate, Prophet: proRate}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ExtShapesResult{Rows: rows}, nil
}

// extHardware runs the extension.
func extHardware(cfg Config) (*ExtHardwareResult, error) {
	hws := []model.Hardware{model.M60Like(), model.V100Like()}
	type row struct{ fifo, pro float64 }
	rows, err := runner.Map(cfg.Jobs, hws, func(_ int, h model.Hardware) (row, error) {
		// The stepwise pattern depends on compute speed: re-profile on
		// each hardware profile, exactly as a real deployment would.
		wire := model.WithWireFactor(model.ResNet50(), WireFactor)
		s, err := prepareWithHardware(wire, 64, cfg.Seed, h)
		if err != nil {
			return row{}, err
		}
		link := linkMbps(4500)
		fifoRate, err := s.rate(cfg, s.fifo(), link, 3)
		if err != nil {
			return row{}, err
		}
		proRate, err := s.rate(cfg, s.prophet(), link, 3)
		if err != nil {
			return row{}, err
		}
		return row{fifo: fifoRate, pro: proRate}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ExtHardwareResult{
		M60FIFO: rows[0].fifo, M60Prophet: rows[0].pro,
		V100FIFO: rows[1].fifo, V100Prophet: rows[1].pro,
	}, nil
}
