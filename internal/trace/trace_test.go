package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"prophet/internal/cluster"
	"prophet/internal/metrics"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/probe"
)

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSV(&buf, 0.5, []string{"t", "a", "b"},
		[]float64{1, 2}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	if lines[0] != "t,a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "0,1,3" || lines[2] != "0.5,2,4" {
		t.Fatalf("rows = %q, %q", lines[1], lines[2])
	}
}

func TestWriteCSVHeaderMismatch(t *testing.T) {
	if err := WriteCSV(&bytes.Buffer{}, 1, []string{"t"}, []float64{1}); err == nil {
		t.Fatal("expected error")
	}
}

func TestWriteCSVLengthMismatch(t *testing.T) {
	err := WriteCSV(&bytes.Buffer{}, 1, []string{"t", "a", "b"},
		[]float64{1}, []float64{1, 2})
	if err == nil {
		t.Fatal("expected error")
	}
}

func clusterRunForTrace(t *testing.T) (*cluster.Result, *probe.SpanRecorder) {
	t.Helper()
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
	return res, rec
}

func TestChromeTraceRoundTrips(t *testing.T) {
	res, _ := clusterRunForTrace(t)
	events := ChromeTrace(res)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var decoded []Event
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("round trip lost events: %d vs %d", len(decoded), len(events))
	}
	// Tracks: gpu (tid 0), uplink (tid 1), downlink (tid 2) present.
	seen := map[int]bool{}
	for _, e := range decoded {
		seen[e.Tid] = true
		if e.Dur < 0 || e.Ts < 0 {
			t.Fatalf("bad event %+v", e)
		}
	}
	for tid := 0; tid <= 2; tid++ {
		if !seen[tid] {
			t.Fatalf("missing track tid=%d", tid)
		}
	}
}

func TestWriteTransferCSV(t *testing.T) {
	log := &metrics.TransferLog{}
	log.Add(metrics.TransferEntry{Iteration: 1, Gradient: 2, Generated: 0.5, Start: 0.75, End: 1})
	var buf bytes.Buffer
	if err := WriteTransferCSV(&buf, log); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "iteration,gradient,") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "1,2,0.5,0.75,1,0.25,0.25") {
		t.Fatalf("row mismatch: %q", out)
	}
}

func TestWriteTransferCSVFromRun(t *testing.T) {
	_, rec := clusterRunForTrace(t)
	var buf bytes.Buffer
	if err := WriteTransferCSV(&buf, rec.Transfers(0)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	want := model.ResNet18().NumGradients()*2 + 1
	if lines != want {
		t.Fatalf("got %d lines, want %d", lines, want)
	}
}
