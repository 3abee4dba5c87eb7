package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func testCfg() Config { return Config{Iterations: 6, Warmup: 1, Seed: 3} }

// run executes the registered experiment id — the same entry point
// prophet-bench uses — and returns its result as the concrete type R.
func run[R Result](id string, cfg Config) (R, error) {
	var none R
	spec, err := ByID(id)
	if err != nil {
		return none, err
	}
	res, err := spec.Run(cfg)
	if err != nil {
		return none, err
	}
	return res.(R), nil
}

func TestRegistryCompleteAndUnique(t *testing.T) {
	specs := All()
	if len(specs) < 16 {
		t.Fatalf("only %d experiments registered", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.ID] {
			t.Fatalf("duplicate id %q", s.ID)
		}
		seen[s.ID] = true
		if s.Run == nil || s.Desc == "" || s.Paper == "" {
			t.Fatalf("incomplete spec %+v", s)
		}
	}
	// Every evaluation figure and table from the paper is covered.
	for _, id := range []string{"fig2", "fig3a", "fig3b", "fig4", "fig5", "fig8",
		"fig9", "fig10", "fig11", "table2", "table3", "fig12", "fig13",
		"sec53-bandwidth", "sec53-hetero", "sec54-profiling"} {
		if !seen[id] {
			t.Fatalf("missing experiment %q", id)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("expected error")
	}
	s, err := ByID("fig8")
	if err != nil || s.ID != "fig8" {
		t.Fatalf("ByID(fig8) = %+v, %v", s, err)
	}
}

func TestFig2ShowsIdleGPU(t *testing.T) {
	r, err := run[*Fig2Result]("fig2", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgGPUUtil >= 0.95 {
		t.Fatalf("FIFO ResNet152 at 3 Gbps should leave the GPU idle; util = %v", r.AvgGPUUtil)
	}
	if r.IdleFraction <= 0 {
		t.Fatal("expected fully-idle bins")
	}
}

func TestFig3aMonotoneInPartition(t *testing.T) {
	r, err := run[*Fig3aResult]("fig3a", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Rate with the smallest partitions must be clearly below the best.
	worst, best := r.Rates[0], r.Rates[0]
	for _, v := range r.Rates {
		if v < worst {
			worst = v
		}
		if v > best {
			best = v
		}
	}
	if r.Rates[0] != worst {
		t.Fatalf("smallest partition should be slowest: %v", r.Rates)
	}
	if best < worst*1.2 {
		t.Fatalf("partition size should matter strongly: %v", r.Rates)
	}
}

func TestFig3bTunedFluctuatesMore(t *testing.T) {
	r, err := run[*Fig3bResult]("fig3b", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Spread <= r.FixedSpread {
		t.Fatalf("tuned spread %v should exceed fixed %v", r.Spread, r.FixedSpread)
	}
}

func TestFig4BlockStructure(t *testing.T) {
	r, err := run[*Fig4Result]("fig4", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ResNet50Blocks) < 10 {
		t.Fatalf("ResNet50 should show many stepwise blocks, got %d", len(r.ResNet50Blocks))
	}
	if len(r.VGG19Blocks) < 3 || len(r.VGG19Blocks) > 6 {
		t.Fatalf("VGG19 should show ~4 blocks, got %d", len(r.VGG19Blocks))
	}
}

func TestFig5ProphetStartsGradZeroOnTime(t *testing.T) {
	r, err := run[*Fig5Result]("fig5", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i, s := range r.Strategies {
		idx[s] = i
	}
	// Prophet starts gradient 0 at its generation time (60 ms).
	if g0 := r.Grad0Start[idx["prophet"]]; g0 > 0.0601 {
		t.Fatalf("prophet gradient-0 start %v, want 0.060", g0)
	}
	// FIFO blocks gradient 0 behind the large gradient 1.
	if r.Grad0Start[idx["default-fifo"]] <= r.Grad0Start[idx["prophet"]] {
		t.Fatal("FIFO should delay gradient 0 relative to Prophet")
	}
}

func TestFig8ProphetWins(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r, err := run[*Fig8Result]("fig8", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Improvement < -3 {
			t.Fatalf("%s bs%d: Prophet materially slower than ByteScheduler (%+.1f%%)",
				row.Model, row.Batch, row.Improvement)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	cfg := testCfg()
	cfg.Iterations = 8
	r, err := run[*Table2Result]("table2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(r.Rows)
	// Rates increase with bandwidth for every strategy.
	for i := 1; i < n; i++ {
		if r.Rows[i].Prophet < r.Rows[i-1].Prophet*0.95 {
			t.Fatalf("prophet rate not increasing with bandwidth: %+v", r.Rows)
		}
	}
	// At 10 Gbps all strategies converge within 5%.
	last := r.Rows[n-1]
	if diff := (last.Prophet - last.BS) / last.BS; diff > 0.05 || diff < -0.05 {
		t.Fatalf("strategies should converge at 10 Gbps: prophet %v bs %v", last.Prophet, last.BS)
	}
	// In the 2-3 Gbps band Prophet leads ByteScheduler.
	if r.Rows[1].Prophet <= r.Rows[1].BS {
		t.Fatalf("Prophet should lead at 2 Gbps: %v vs %v", r.Rows[1].Prophet, r.Rows[1].BS)
	}
}

func TestFig12NearLinearScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r, err := run[*Fig12Result]("fig12", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.PerWorkerRate < 0.9*first.PerWorkerRate {
		t.Fatalf("per-worker rate dropped >10%% from %d to %d workers: %+v",
			first.Workers, last.Workers, r.Rows)
	}
}

func TestSec53HeteroOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r, err := run[*Sec53HeteroResult]("sec53-hetero", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !(r.Prophet > r.FIFO && r.BS > r.FIFO) {
		t.Fatalf("both schedulers should beat MXNet in hetero cluster: %+v", r)
	}
}

func TestSec54ProfilingOrdering(t *testing.T) {
	r, err := run[*Sec54ProfilingResult]("sec54-profiling", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// ResNet152 bs32 must cost more than ResNet50 bs64 (paper shape).
	var rn50, rn152 float64
	for _, row := range r.Rows {
		switch row.Model {
		case "resnet50":
			rn50 = row.WallTimeS
		case "resnet152":
			rn152 = row.WallTimeS
		}
	}
	if !(rn152 > rn50) {
		t.Fatalf("profiling cost ordering broken: rn50=%v rn152=%v", rn50, rn152)
	}
}

func TestAblationOverheadConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r, err := run[*AblationOverheadResult]("ablation-overhead", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Without per-message overhead, P3 must close most of its gap to
	// Prophet.
	gapWith := r.WithOverhead[3] - r.WithOverhead[1]
	gapWithout := r.NoOverhead[3] - r.NoOverhead[1]
	if gapWithout > gapWith {
		t.Fatalf("removing overhead should shrink P3's gap: with=%v without=%v", gapWith, gapWithout)
	}
}

func TestRenderMentionsPaperNumbers(t *testing.T) {
	// The renders double as the EXPERIMENTS.md source, so every one must
	// reference the paper's reported values.
	r, err := run[*Fig5Result]("fig5", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "paper") {
		t.Fatal("render should cite the paper's observation")
	}
}

func TestSparkline(t *testing.T) {
	s := sparkline([]float64{0, 0.5, 1}, 0, 1)
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline length %d", len([]rune(s)))
	}
	if sparkline(nil, 0, 1) != "" {
		t.Fatal("empty input should give empty sparkline")
	}
}

// The three tests below pin the numbers Fig. 2/10/11 print at testCfg, as
// literals captured while the simulator still kept its own rate series and
// transfer log. They now guard the probe recorder's derived Rate view and
// the attribution Fig. 11 reads: any change to what a view contains or to
// its summation order moves the last digits.

func equalFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestFig2Pinned(t *testing.T) {
	r, err := run[*Fig2Result]("fig2", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.NetThroughput) != 181 || len(r.GPUUtil) != 181 {
		t.Fatalf("timelines have %d/%d bins, want 181", len(r.NetThroughput), len(r.GPUUtil))
	}
	equalFloats(t, "net head", r.NetThroughput[:6], []float64{
		1.6667439365508044e+08, 1.7569262074764073e+08, 1.6498928152614215e+08,
		1.6498928152614215e+08, 1.6498928152614215e+08, 1.745900564542316e+08})
	equalFloats(t, "net tail", r.NetThroughput[178:], []float64{
		5.869441010119527e+07, 5.0059359699655846e+07, 0})
	equalFloats(t, "avg GPU util, idle fraction",
		[]float64{r.AvgGPUUtil, r.IdleFraction}, []float64{0.363757959859177, 0.56353591160221})
}

func TestFig10Pinned(t *testing.T) {
	r, err := run[*Fig10Result]("fig10", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ProphetTimeline) != 56 || len(r.BSTimeline) != 60 {
		t.Fatalf("timelines have %d/%d bins, want 56/60", len(r.ProphetTimeline), len(r.BSTimeline))
	}
	equalFloats(t, "prophet head", r.ProphetTimeline[:6], []float64{
		2.7465847399803054e+08, 1.1443143384484014e+08, 0, 0,
		1.7038051876485315e+08, 2.620436417896666e+08})
	equalFloats(t, "bytescheduler head", r.BSTimeline[:6], []float64{
		1.9665683382497537e+08, 1.9665683382497516e+08, 1.966568338249752e+08,
		1.9665683382497516e+08, 1.273671780172775e+08, 1.966568338249752e+08})
	equalFloats(t, "bytescheduler tail", r.BSTimeline[58:], []float64{
		1.966568338249752e+08, 1.584577498456958e+07})
	equalFloats(t, "averages", []float64{r.ProphetAvg, r.BSAvg},
		[]float64{1.9251768022884116e+08, 1.8548159847118607e+08})
}

func TestFig11Pinned(t *testing.T) {
	r, err := run[*Fig11Result]("fig11", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	var wait, transfer []float64
	for _, row := range r.Rows {
		wait, transfer = append(wait, row.WaitMS), append(transfer, row.TransferMS)
	}
	equalFloats(t, "mean wait ms", wait,
		[]float64{343.02671066173565, 105.96839380872295, 39.12429100678832})
	equalFloats(t, "mean transfer ms", transfer,
		[]float64{6.239715445134694, 52.77834898550693, 102.28013890959247})
}
