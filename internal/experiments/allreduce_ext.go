package experiments

import (
	"fmt"
	"io"

	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/schedule"
	"prophet/internal/sim"
	"prophet/internal/strategy"
)

// ExtAllReduceResult compares PS + Prophet against ring all-reduce
// (Horovod-style fusion) on the same workload — the architectural
// comparison the paper's related work (PACE) gestures at. The ring moves
// 2(W−1)/W of the model per link per iteration versus the PS architecture's
// 2× (push + pull), so at equal per-link bandwidth the ring's wire volume
// is comparable; the difference comes from fusion granularity and the
// ring's lockstep coupling.
type ExtAllReduceResult struct {
	LimitsMbps []float64
	PSProphet  []float64
	Ring       []float64
	// RingTinyFusion shows the ring without tensor fusion (per-tensor
	// reductions) — the degenerate case Prophet's blocks also avoid.
	RingTinyFusion []float64
}

// Render implements Result.
func (r *ExtAllReduceResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Extension — PS+Prophet vs ring all-reduce (ResNet50 bs64, 3 workers)\n")
	fmt.Fprintf(w, "  %-8s %12s %12s %16s\n", "Mbps", "ps+prophet", "ring(64MB)", "ring(no fusion)")
	for i := range r.LimitsMbps {
		fmt.Fprintf(w, "  %-8.0f %9.2f/s %9.2f/s %13.2f/s\n",
			r.LimitsMbps[i], r.PSProphet[i], r.Ring[i], r.RingTinyFusion[i])
	}
	fmt.Fprintf(w, "  fusion is to the ring what blocks are to Prophet: without it, per-tensor\n")
	fmt.Fprintf(w, "  step overheads collapse the ring's rate\n")
}

// extAllReduce runs the comparison.
func extAllReduce(cfg Config) (*ExtAllReduceResult, error) {
	s, err := prepare(model.ResNet50(), 64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	limits := []float64{2000, 4500, 10000}
	sizes := make([]float64, s.wire.NumGradients())
	for i, g := range s.wire.Grads {
		sizes[i] = g.Bytes()
	}
	// ringRate runs the ring under the registry's fusion strategy with the
	// given buffer threshold (0 = its 64 MB default).
	ringRate := func(link func(int) netsim.LinkConfig, fusionBytes float64) (float64, error) {
		c := s.config(cfg, func(int, *sim.Engine, *netsim.Link) schedule.Scheduler {
			f, err := strategy.New("fusion", strategy.Params{Sizes: sizes, FusionBytes: fusionBytes})
			if err != nil {
				panic(err) // fusion is registered and sizes is non-empty
			}
			return f
		}, link, 3)
		c.Transport = "ring"
		return rateOf(cfg, c)
	}
	out := &ExtAllReduceResult{LimitsMbps: limits}
	for _, mbps := range limits {
		link := linkMbps(mbps)
		ps, err := s.rate(cfg, s.prophet(), link, 3)
		if err != nil {
			return nil, err
		}
		ring, err := ringRate(link, 0)
		if err != nil {
			return nil, err
		}
		tiny, err := ringRate(link, 1) // effectively per-tensor
		if err != nil {
			return nil, err
		}
		out.PSProphet = append(out.PSProphet, ps)
		out.Ring = append(out.Ring, ring)
		out.RingTinyFusion = append(out.RingTinyFusion, tiny)
	}
	return out, nil
}
