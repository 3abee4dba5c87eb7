package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"prophet/internal/cluster"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/probe"
)

var update = flag.Bool("update", false, "regenerate golden files")

// goldenRecorder replays a fixed, scripted event sequence — two workers,
// two lanes, faults, an interleaved schedule — so the rendered trace is
// bit-stable across runs and platforms.
func goldenRecorder() *probe.SpanRecorder {
	rec := probe.NewSpanRecorder()
	var obs probe.Observer = rec
	for w := 0; w < 2; w++ {
		base := float64(w) * 0.01
		obs.BeginIteration(w, 0, base)
		obs.Generated(w, 0, base+0.001)
		obs.Generated(w, 1, base+0.002)
		obs.SendStart(w, 0, 0, 0, "g0", 4096, []probe.Range{{Grad: 0, Bytes: 4096, Last: true}}, base+0.003)
		obs.SendStart(w, 1, 1, 0, "g1", 2048, []probe.Range{{Grad: 1, Bytes: 2048, Last: true}}, base+0.004)
		obs.SendComplete(w, 1, 0, base+0.005)
		obs.SendComplete(w, 0, 0, base+0.006)
		obs.PullAcked(w, 0, 0, base+0.007)
		obs.PullAcked(w, 1, 0, base+0.008)
		obs.EndIteration(w, 0, base+0.009)
	}
	obs.FaultInjected(1, "stall", 0.015)
	return rec
}

// encode renders events as the JSON array the document's traceEvents holds.
func encode(t *testing.T, events []traceEvent) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChromeTraceSpansGolden pins the exact trace JSON both executors'
// span tracks produce. Regenerate with: go test ./cmd/prophet-run -update
func TestChromeTraceSpansGolden(t *testing.T) {
	got := encode(t, chromeTraceSpans(goldenRecorder()))
	golden := filepath.Join("testdata", "spans_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace JSON drifted from golden (run with -update if intended):\ngot:  %s\nwant: %s",
			got, want)
	}
}

// TestChromeTraceSpansShape checks the structural requirements the trace
// viewer needs: valid JSON, complete ("X") events only, one span per wire
// send on the right process/track, zero-duration fault markers.
func TestChromeTraceSpansShape(t *testing.T) {
	raw := encode(t, chromeTraceSpans(goldenRecorder()))
	if !json.Valid(raw) {
		t.Fatal("invalid JSON")
	}
	var decoded []traceEvent
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	// 2 workers × (1 iteration + 2 sends) + 1 fault marker.
	if len(decoded) != 2*3+1 {
		t.Fatalf("got %d events, want 7", len(decoded))
	}
	iters, sends, faults := 0, 0, 0
	for _, e := range decoded {
		if e.Ph != "X" {
			t.Errorf("event %q has phase %q, want X", e.Name, e.Ph)
		}
		switch {
		case e.Name == "iteration":
			iters++
			if e.Tid != 0 {
				t.Errorf("iteration on tid %d, want 0", e.Tid)
			}
		case e.Name == "fault:stall":
			faults++
			if e.Dur != 0 || e.Tid != 99 || e.Pid != 1 {
				t.Errorf("fault marker = %+v", e)
			}
		default:
			sends++
			if e.Tid < 1 {
				t.Errorf("send %q on tid %d, want >= 1", e.Name, e.Tid)
			}
			if e.Dur <= 0 {
				t.Errorf("send %q has non-positive duration %v", e.Name, e.Dur)
			}
		}
	}
	if iters != 2 || sends != 4 || faults != 1 {
		t.Errorf("iters=%d sends=%d faults=%d, want 2, 4, 1", iters, sends, faults)
	}
}

// A simulated PS run's trace round-trips with every track present: the
// recorder's iteration and lane tracks, and the simulator's own compute and
// downlink tracks on their tids.
func TestChromeTraceRoundTrips(t *testing.T) {
	m := model.ResNet18()
	rec := probe.NewSpanRecorder()
	res, err := cluster.Run(cluster.Config{
		Model:     m,
		Batch:     16,
		Workers:   2,
		Scheduler: cluster.FIFOFactory(m),
		Uplink: func(int) netsim.LinkConfig {
			return netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(5)))
		},
		Iterations:  2,
		Seed:        1,
		RecordLinks: true,
		Observer:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := append(chromeTraceSpans(rec), simTracks(res)...)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	var decoded []traceEvent
	if err := json.Unmarshal(encode(t, events), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("round trip lost events: %d vs %d", len(decoded), len(events))
	}
	seen := map[int]bool{}
	for _, e := range decoded {
		seen[e.Tid] = true
		if e.Dur < 0 || e.Ts < 0 {
			t.Fatalf("bad event %+v", e)
		}
	}
	// Tracks: iteration (tid 0), uplink lane 0 (tid 1), gpu, downlink.
	for _, tid := range []int{0, 1, gpuTid, downTid} {
		if !seen[tid] {
			t.Fatalf("missing track tid=%d", tid)
		}
	}
}
