package experiments

import (
	"fmt"
	"io"

	"prophet/internal/cluster"
	"prophet/internal/experiments/runner"
	"prophet/internal/model"
	"prophet/internal/probe/attrib"
	"prophet/internal/sim"
)

// Fig8Row is one (model, batch) comparison.
type Fig8Row struct {
	Model       string
	Batch       int
	Prophet, BS float64
	Improvement float64 // percent
}

// Fig8Result reproduces the headline comparison: training rate of
// representative models and batch sizes, Prophet vs ByteScheduler, in the
// paper's 1-PS cluster whose NIC all workers share.
type Fig8Result struct {
	Rows []Fig8Row
}

// Render implements Result.
func (r *Fig8Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 8 — training rate (samples/s per worker), Prophet vs ByteScheduler\n")
	fmt.Fprintf(w, "  %-14s %5s  %9s %9s  %6s\n", "model", "batch", "prophet", "bytesch", "gain")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-14s %5d  %9.2f %9.2f  %+5.1f%%\n",
			row.Model, row.Batch, row.Prophet, row.BS, row.Improvement)
	}
	fmt.Fprintf(w, "  paper: Prophet improves training rate by 10-40%% across models and batches\n")
}

// fig8 runs the experiment.
func fig8(cfg Config) (*Fig8Result, error) {
	type job struct {
		base  *model.Model
		batch int
	}
	jobs := []job{
		{model.ResNet18(), 16}, {model.ResNet18(), 32}, {model.ResNet18(), 64},
		{model.ResNet50(), 16}, {model.ResNet50(), 32}, {model.ResNet50(), 64},
		{model.ResNet152(), 16}, {model.ResNet152(), 32},
		{model.InceptionV3(), 16}, {model.InceptionV3(), 32},
	}
	const workers = 3
	rows, err := runner.Map(cfg.Jobs, jobs, func(_ int, j job) (Fig8Row, error) {
		s, err := prepare(j.base, j.batch, cfg.Seed)
		if err != nil {
			return Fig8Row{}, err
		}
		link := sharedPSLink(workers)
		pro, err := s.rate(cfg, s.prophet(), link, workers)
		if err != nil {
			return Fig8Row{}, err
		}
		bs, err := s.rate(cfg, s.byteScheduler(), link, workers)
		if err != nil {
			return Fig8Row{}, err
		}
		return Fig8Row{
			Model:       j.base.Name,
			Batch:       j.batch,
			Prophet:     pro,
			BS:          bs,
			Improvement: pct(pro, bs),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Rows: rows}, nil
}

// Fig9Result reproduces GPU utilization over time for ResNet50: Prophet's
// earlier forward starts raise average utilization well above
// ByteScheduler's (paper: 91.15% vs 67.85%).
type Fig9Result struct {
	ProphetTimeline, BSTimeline []float64
	ProphetAvg, BSAvg           float64
}

// Render implements Result.
func (r *Fig9Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 9 — GPU utilization over time (ResNet50 bs64, shared 10 Gbps PS)\n")
	fmt.Fprintf(w, "  prophet  %s  avg %.1f%%\n", sparkline(r.ProphetTimeline, 0, 1), 100*r.ProphetAvg)
	fmt.Fprintf(w, "  bytesch  %s  avg %.1f%%\n", sparkline(r.BSTimeline, 0, 1), 100*r.BSAvg)
	fmt.Fprintf(w, "  paper: 91.15%% (Prophet) vs 67.85%% (ByteScheduler)\n")
}

// fig9 runs the experiment.
func fig9(cfg Config) (*Fig9Result, error) {
	s, err := prepare(model.ResNet50(), 64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	const workers = 3
	link := sharedPSLink(workers)
	pro, err := s.run(cfg, s.prophet(), link, workers)
	if err != nil {
		return nil, err
	}
	bs, err := s.run(cfg, s.byteScheduler(), link, workers)
	if err != nil {
		return nil, err
	}
	return &Fig9Result{
		ProphetTimeline: pro.GPU[0].Timeline(pro.Iters.Starts[cfg.Warmup], pro.Duration, 0.1),
		BSTimeline:      bs.GPU[0].Timeline(bs.Iters.Starts[cfg.Warmup], bs.Duration, 0.1),
		ProphetAvg:      pro.GPUUtil(0, cfg.Warmup),
		BSAvg:           bs.GPUUtil(0, cfg.Warmup),
	}, nil
}

// Fig10Result reproduces network throughput over time: Prophet's blocks
// push more payload per unit time (paper: +37.3% average throughput).
type Fig10Result struct {
	ProphetTimeline, BSTimeline []float64
	ProphetAvg, BSAvg           float64 // bytes/sec
}

// Render implements Result.
func (r *Fig10Result) Render(w io.Writer) {
	hi := sim.Max(r.ProphetTimeline)
	if m := sim.Max(r.BSTimeline); m > hi {
		hi = m
	}
	fmt.Fprintf(w, "Fig. 10 — uplink throughput over time (ResNet50 bs64, shared 10 Gbps PS)\n")
	fmt.Fprintf(w, "  prophet  %s  avg %.1f MB/s\n", sparkline(r.ProphetTimeline, 0, hi), r.ProphetAvg/1e6)
	fmt.Fprintf(w, "  bytesch  %s  avg %.1f MB/s\n", sparkline(r.BSTimeline, 0, hi), r.BSAvg/1e6)
	fmt.Fprintf(w, "  relative: %+.1f%%   paper: Prophet +37.3%% average throughput\n", pct(r.ProphetAvg, r.BSAvg))
}

// fig10 runs the experiment.
func fig10(cfg Config) (*Fig10Result, error) {
	s, err := prepare(model.ResNet50(), 64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	const workers = 3
	link := sharedPSLink(workers)
	// uplink runs one strategy and reads worker 0's uplink payload over the
	// steady-state window from the run's probe recording.
	uplink := func(f cluster.SchedulerFactory) (timeline []float64, avg float64, err error) {
		res, rec, err := s.runRecorded(cfg, f, link, workers)
		if err != nil {
			return nil, 0, err
		}
		up, from := rec.Rate(0), res.Iters.Starts[cfg.Warmup]
		return up.Timeline(from, res.Duration, 0.1), up.Throughput(from, res.Duration), nil
	}
	out := &Fig10Result{}
	if out.ProphetTimeline, out.ProphetAvg, err = uplink(s.prophet()); err != nil {
		return nil, err
	}
	if out.BSTimeline, out.BSAvg, err = uplink(s.byteScheduler()); err != nil {
		return nil, err
	}
	return out, nil
}

// Fig11Result reproduces the per-gradient transfer analysis: average wait
// time before transmission and average transmission time, per strategy
// (paper: transfers 446/135/125 ms and waits 67/26 ms for
// MXNet/ByteScheduler/Prophet).
type Fig11Result struct {
	Rows []Fig11Row
}

// Fig11Row is one strategy's mean push wait and transfer time.
type Fig11Row struct {
	Strategy           string
	WaitMS, TransferMS float64
}

// Render implements Result.
func (r *Fig11Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 11 — per-gradient push wait and transfer time (ResNet50 bs64)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-14s wait %6.1f ms   transfer %6.1f ms\n", row.Strategy, row.WaitMS, row.TransferMS)
	}
	fmt.Fprintf(w, "  paper: transfer 446 (MXNet) / 135 (BS) / 125 (Prophet) ms;\n")
	fmt.Fprintf(w, "         wait 67 (BS) / 26 (Prophet) ms\n")
}

// fig11 runs the experiment.
func fig11(cfg Config) (*Fig11Result, error) {
	s, err := prepare(model.ResNet50(), 64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	const workers = 3
	link := sharedPSLink(workers)
	type strat struct {
		name    string
		factory cluster.SchedulerFactory
	}
	strategies := []strat{
		{"default-fifo", s.fifo()},
		{"bytescheduler", s.byteScheduler()},
		{"prophet", s.prophet()},
	}
	rows, err := runner.Map(cfg.Jobs, strategies, func(_ int, st strat) (Fig11Row, error) {
		_, rec, err := s.runRecorded(cfg, st.factory, link, workers)
		if err != nil {
			return Fig11Row{}, err
		}
		m := attrib.Analyze(rec, 3).Mean(0, 0)
		return Fig11Row{Strategy: st.name, WaitMS: 1e3 * m.Wait(), TransferMS: 1e3 * m.Transmit}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig11Result{Rows: rows}, nil
}

// Table2Result reproduces the bandwidth sweep: ResNet50 bs64 rates for
// Prophet, ByteScheduler, and P3 under worker bandwidth limits.
type Table2Result struct {
	Rows []Table2Row
}

// Table2Row is one bandwidth limit: measured rates next to the paper's.
type Table2Row struct {
	LimitMbps                      float64
	Prophet, BS, P3                float64
	PaperProphet, PaperBS, PaperP3 float64
}

// Render implements Result.
func (r *Table2Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 2 — ResNet50 bs64 training rate under bandwidth limits\n")
	fmt.Fprintf(w, "  %-8s | %-26s | %-26s\n", "", "measured (samples/s)", "paper (samples/s)")
	fmt.Fprintf(w, "  %-8s | %8s %8s %8s | %8s %8s %8s\n", "Mbps", "prophet", "bytesch", "p3", "prophet", "bytesch", "p3")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-8.0f | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f\n",
			row.LimitMbps, row.Prophet, row.BS, row.P3,
			row.PaperProphet, row.PaperBS, row.PaperP3)
	}
	fmt.Fprintf(w, "  paper shape: Prophet leads in 2-4.5 Gbps, P3 collapses at low bandwidth,\n")
	fmt.Fprintf(w, "  all strategies converge at 6-10 Gbps\n")
}

// table2 runs the experiment.
func table2(cfg Config) (*Table2Result, error) {
	s, err := prepare(model.ResNet50(), 64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	limits := []Table2Row{
		{LimitMbps: 1000, PaperProphet: 27.7, PaperBS: 25.9, PaperP3: 25.16},
		{LimitMbps: 2000, PaperProphet: 47.9, PaperBS: 39.09, PaperP3: 37.69},
		{LimitMbps: 3000, PaperProphet: 60, PaperBS: 44, PaperP3: 51.22},
		{LimitMbps: 4000, PaperProphet: 67.06, PaperBS: 50.5, PaperP3: 64.34},
		{LimitMbps: 4500, PaperProphet: 69.29, PaperBS: 54.14, PaperP3: 67.83},
		{LimitMbps: 6000, PaperProphet: 69.5, PaperBS: 70, PaperP3: 68.93},
		{LimitMbps: 10000, PaperProphet: 70.6, PaperBS: 71.1, PaperP3: 72.83},
	}
	rows, err := runner.Map(cfg.Jobs, limits, func(_ int, row Table2Row) (Table2Row, error) {
		link := linkMbps(row.LimitMbps)
		var err error
		if row.Prophet, err = s.rate(cfg, s.prophet(), link, 3); err != nil {
			return row, err
		}
		if row.BS, err = s.rate(cfg, s.byteScheduler(), link, 3); err != nil {
			return row, err
		}
		row.P3, err = s.rate(cfg, s.p3(), link, 3)
		return row, err
	})
	if err != nil {
		return nil, err
	}
	return &Table2Result{Rows: rows}, nil
}

// Table3Result reproduces the batch-size sweep for ResNet18/50.
type Table3Result struct {
	Rows []Table3Row
}

// Table3Row is one (model, batch) point; the gains are percent.
type Table3Row struct {
	Model                  string
	Batch                  int
	Prophet, BS            float64
	Improvement, PaperImpr float64
}

// Render implements Result.
func (r *Table3Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 3 — batch-size sweep (3 Gbps workers)\n")
	fmt.Fprintf(w, "  %-10s %5s  %8s %8s  %7s  %10s\n", "model", "batch", "prophet", "bytesch", "gain", "paper gain")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-10s %5d  %8.2f %8.2f  %+5.1f%%  %9.1f%%\n",
			row.Model, row.Batch, row.Prophet, row.BS, row.Improvement, row.PaperImpr)
	}
	fmt.Fprintf(w, "  paper: improvement grows with batch size (1.5%% at bs16 to 36%% at bs64)\n")
}

// table3 runs the experiment.
func table3(cfg Config) (*Table3Result, error) {
	type job struct {
		base      *model.Model
		batch     int
		paperImpr float64
	}
	jobs := []job{
		{model.ResNet18(), 16, 11.6},
		{model.ResNet18(), 64, 33},
		{model.ResNet50(), 16, 1.5},
		{model.ResNet50(), 32, 22},
		{model.ResNet50(), 64, 36},
	}
	rows, err := runner.Map(cfg.Jobs, jobs, func(_ int, j job) (Table3Row, error) {
		s, err := prepare(j.base, j.batch, cfg.Seed)
		if err != nil {
			return Table3Row{}, err
		}
		link := linkMbps(3000)
		pro, err := s.rate(cfg, s.prophet(), link, 3)
		if err != nil {
			return Table3Row{}, err
		}
		bs, err := s.rate(cfg, s.byteScheduler(), link, 3)
		if err != nil {
			return Table3Row{}, err
		}
		return Table3Row{
			Model: j.base.Name, Batch: j.batch, Prophet: pro, BS: bs,
			Improvement: pct(pro, bs), PaperImpr: j.paperImpr,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table3Result{Rows: rows}, nil
}
