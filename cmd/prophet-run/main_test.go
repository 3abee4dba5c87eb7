package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"prophet/internal/probe"
	"prophet/internal/probe/attrib"
	"prophet/internal/probe/predict"
)

// small is a job both executors finish in well under a second: ResNet18 on
// the simulator, a 16-wide MLP on the live path, four workers so tree (a
// power of two on the live fabric) runs everywhere.
func small(path string, more ...string) []string {
	return append([]string{"-path", path, "-model", "resnet18", "-hidden", "16", "-batch", "16",
		"-workers", "4", "-iters", "4", "-policy", "fifo"}, more...)
}

func mustRun(t *testing.T, args []string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return out.String()
}

// labels returns the "  label:" prefixes of the report lines, in order.
func labels(report string) []string {
	var got []string
	for _, line := range strings.Split(report, "\n") {
		if label, _, ok := strings.Cut(line, ":"); ok && strings.HasPrefix(line, "  ") {
			got = append(got, strings.TrimSpace(label))
		}
	}
	return got
}

// The command exists to compare schedules across transports and executors,
// so the shared block has the same three lines on all six combinations, each
// executor's own lines do not depend on the transport, and a simulated
// collective adds only its operation count.
func TestEveryTransportPrintsTheSameLines(t *testing.T) {
	shared := []string{"iteration time", "tensor-0 trip", "uplink payload"}
	own := map[string][]string{
		"sim": {"training rate", "GPU utilization", "simulated time"},
		"emu": {"loss", "push order", "wall time", "phase compute", "phase wire", "phase update", "phase eval-wait"},
	}
	for _, path := range []string{"sim", "emu"} {
		want := append(append([]string{}, shared...), own[path]...)
		for _, transport := range []string{"ps", "ring", "tree"} {
			var got []string
			ops := 0
			for _, l := range labels(mustRun(t, small(path, "-transport", transport))) {
				if l == "collective ops" {
					ops++
					continue
				}
				got = append(got, l)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("-path %s -transport %s prints %q, want %q", path, transport, got, want)
			}
			if simCollective := path == "sim" && transport != "ps"; (ops == 1) != simCollective {
				t.Errorf("-path %s -transport %s prints %d collective-ops lines", path, transport, ops)
			}
		}
	}
}

// The live report has a row per phase of the worker loop — a mean and a max
// across workers, max ≥ mean ≥ 0 — and the eval-wait row shows worker 0's
// helper's own evaluation time beside it, so the overlap can be read off.
func TestEmuPrintsPhaseRows(t *testing.T) {
	report := mustRun(t, small("emu", "-policy", "prophet"))
	for _, phase := range []string{"compute", "wire", "update", "eval-wait"} {
		_, line, ok := strings.Cut(report, "  phase "+phase+":")
		line, _, _ = strings.Cut(line, "\n")
		var mean, max float64
		if _, err := fmt.Sscanf(line, "%f ms mean, %f ms max", &mean, &max); !ok || err != nil {
			t.Fatalf("no %s row in:\n%s", phase, report)
		}
		if mean < 0 || max < mean {
			t.Errorf("%s: mean %v ms, max %v ms", phase, mean, max)
		}
		if helper := strings.Contains(line, "its helper evaluates"); helper != (phase == "eval-wait") {
			t.Errorf("%s row %q: helper time shown %v", phase, line, helper)
		}
	}
}

// The phase rows exclude iteration 0, so a one-iteration live run has nothing
// to put in them: it says so in one line instead of printing four rows of
// zeros and a helper that "evaluates 0.00 ms".
func TestEmuOneIterationPrintsNoPhaseRows(t *testing.T) {
	got := labels(mustRun(t, small("emu", "-iters", "1")))
	want := []string{"iteration time", "tensor-0 trip", "uplink payload", "loss", "push order", "wall time", "phases"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("-iters 1 prints %q, want %q", got, want)
	}
}

// The run document's only gate: on both paths and both wires, -out writes a
// version-1 document with a summary object, a timeline holding the series
// its executor and wire can fill, gradient and attribution rows, an audit
// that planned send windows (every run here is shaped: the simulator at
// 3 Gbps, the live path at the 32 Mbps default), and a non-empty
// traceEvents array of complete events a trace viewer accepts.
func TestEveryExportParses(t *testing.T) {
	for _, tc := range []struct {
		path, transport, policy string
		timeline                []string
	}{
		{"sim", "ps", "fifo", []string{"bin_s", "downlink_Bps", "gpu_util", "uplink_Bps"}},
		{"sim", "ring", "prophet", []string{"bin_s", "gpu_util", "uplink_Bps"}},
		{"emu", "ps", "prophet", []string{"bin_s", "uplink_Bps"}},
		{"emu", "ring", "prophet", []string{"bin_s", "uplink_Bps"}},
	} {
		name := tc.path + "/" + tc.transport + "/" + tc.policy
		file := filepath.Join(t.TempDir(), "run.json")
		report := mustRun(t, small(tc.path, "-transport", tc.transport, "-policy", tc.policy, "-out", file))
		if n := strings.Count(report, "wrote "); n != 1 {
			t.Errorf("%s: report names %d written files, want 1:\n%s", name, n, report)
		}
		var doc struct {
			Version     *int
			Summary     map[string]float64
			Timeline    map[string]json.RawMessage
			Gradients   []probe.GradTimes
			Attribution attrib.Report
			Audit       predict.Report
			TraceEvents []map[string]any
		}
		if err := json.Unmarshal(readFile(t, file), &doc); err != nil {
			t.Fatalf("%s: not a run document: %v", name, err)
		}
		if doc.Version == nil || *doc.Version != 1 {
			t.Errorf("%s: version is not 1", name)
		}
		if doc.Summary == nil {
			t.Errorf("%s: no summary object", name)
		}
		if got := sortedKeys(doc.Timeline); !reflect.DeepEqual(got, tc.timeline) {
			t.Errorf("%s: timeline has %q, want %q", name, got, tc.timeline)
		}
		if len(doc.Gradients) < 2 || len(doc.Attribution.PerGrad) < 2 || len(doc.Audit.Scores) < 2 {
			t.Errorf("%s: %d gradient, %d attribution and %d audit rows, want rows in each",
				name, len(doc.Gradients), len(doc.Attribution.PerGrad), len(doc.Audit.Scores))
		}
		if doc.Audit.Planned <= 0 {
			t.Errorf("%s: a shaped run audited %d planned send windows", name, doc.Audit.Planned)
		}
		if len(doc.TraceEvents) == 0 {
			t.Fatalf("%s: traceEvents is not a non-empty event array", name)
		}
		for i, e := range doc.TraceEvents {
			evName, _ := e["name"].(string)
			ph, _ := e["ph"].(string)
			ts, hasTs := e["ts"].(float64)
			dur, hasDur := e["dur"].(float64)
			_, hasPid := e["pid"]
			_, hasTid := e["tid"]
			if evName == "" || ph == "" || !hasTs || !hasDur || ts < 0 || dur < 0 || !hasPid || !hasTid {
				t.Fatalf("%s: event %d is not a complete event with a name, ph, ts ≥ 0, dur ≥ 0, pid and tid: %v", name, i, e)
			}
		}
	}
}

// A simulated and a live run of the same job write documents that diff as
// data: the same sections (the phase rows are the live loop's own), the
// same summary figures, the iteration and lane tracks in both traces, and
// attribution rows that add up on both clocks. The live gradients section
// holds every worker's lifecycles, not worker 0's alone.
func TestSimAndLiveDocumentsDiffAsData(t *testing.T) {
	const workers, iters, tensors = 4, 4, 6 // the MLP has 2×(layers−1) tensors
	for _, transport := range []string{"ps", "ring"} {
		docs := map[string]map[string]json.RawMessage{}
		for _, path := range []string{"sim", "emu"} {
			file := filepath.Join(t.TempDir(), path+".json")
			mustRun(t, small(path, "-transport", transport, "-out", file))
			docs[path] = readDocument(t, file)
		}
		sim, live := docs["sim"], docs["emu"]
		if _, ok := sim["phases"]; ok {
			t.Errorf("%s: the simulated document has phases", transport)
		}
		simKeys := append(sortedKeys(sim), "phases")
		sort.Strings(simKeys)
		if got := sortedKeys(live); !reflect.DeepEqual(got, simKeys) {
			t.Errorf("%s: live sections %q, simulated %q plus phases", transport, got, simKeys)
		}
		var simSum, liveSum map[string]float64
		if json.Unmarshal(sim["summary"], &simSum) != nil || json.Unmarshal(live["summary"], &liveSum) != nil {
			t.Fatalf("%s: summary is not an object of figures", transport)
		}
		if !reflect.DeepEqual(sortedKeys(simSum), sortedKeys(liveSum)) || len(simSum) != 3 {
			t.Errorf("%s: summary keys %q simulated, %q live", transport, sortedKeys(simSum), sortedKeys(liveSum))
		}
		for path, doc := range docs {
			var events []traceEvent
			if err := json.Unmarshal(doc["traceEvents"], &events); err != nil {
				t.Fatal(err)
			}
			iterTrack, laneTrack := false, false
			for _, e := range events {
				iterTrack = iterTrack || (e.Tid == 0 && e.Name == "iteration")
				laneTrack = laneTrack || (e.Tid >= 1 && e.Tid < 99)
			}
			if !iterTrack || !laneTrack {
				t.Errorf("%s/%s: iteration track %v, lane track %v", path, transport, iterTrack, laneTrack)
			}
			var rep attrib.Report
			if err := json.Unmarshal(doc["attribution"], &rep); err != nil || len(rep.PerGrad) == 0 {
				t.Fatalf("%s/%s: %d attribution rows (err %v)", path, transport, len(rep.PerGrad), err)
			}
			for _, c := range rep.PerGrad {
				if d := math.Abs(c.Sum() - c.Completion); d > 1e-9 {
					t.Errorf("%s/%s: worker %d iter %d g%d components miss completion by %g", path, transport, c.Worker, c.Iter, c.Grad, d)
				}
			}
		}
		var grads []probe.GradTimes
		if err := json.Unmarshal(live["gradients"], &grads); err != nil {
			t.Fatal(err)
		}
		if len(grads) != workers*iters*tensors {
			t.Errorf("%s: %d live gradient rows, want %d (workers × iterations × tensors)", transport, len(grads), workers*iters*tensors)
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// readDocument decodes a -out document's top-level sections.
func readDocument(t *testing.T, path string) map[string]json.RawMessage {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(readFile(t, path), &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return doc
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestBadInvocationsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-path", "bogus"}, `unknown -path "bogus"`},
		{[]string{"-policy", "nope"}, `unknown strategy "nope"`},
		{[]string{"-bandwidth", "0"}, "-path sim"},
		// These used to run silently at the 4 MB default.
		{[]string{"-policy", "p3", "-partition", "0"}, "-partition 0"},
		{[]string{"-policy", "bytescheduler", "-credit", "0"}, "-credit 0"},
		{[]string{"-policy", "bytescheduler", "-credit", "-1"}, "-credit -1"},
		{[]string{"-bandwidth", "-5"}, "-bandwidth -5"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// feed plays one worker-0 iteration into rec: it starts at `at`, gradient 0
// is generated 1 ms in and acked `trip` later, `bytes` leave on the uplink
// meanwhile, and the iteration ends 5 ms after the ack.
func feed(rec *probe.SpanRecorder, iter int, at, trip, bytes float64) (end float64) {
	rec.BeginIteration(0, iter, at)
	rec.Generated(0, 0, at+0.001)
	rec.SendStart(0, 0, iter, iter, "g0", bytes, []probe.Range{{Grad: 0, Last: true}}, at+0.001)
	rec.SendComplete(0, 0, iter, at+0.001+trip/2)
	rec.PullAcked(0, 0, iter, at+0.001+trip)
	end = at + 0.001 + trip + 0.005
	rec.EndIteration(0, iter, end)
	return end
}

// The summary skips the two warm-up iterations — under -policy prophet on
// the live path iteration 0 is the FIFO profiling window, and prophet-emu's
// all-iterations mean charged prophet for it (≈30.5 ms printed at -iters 4
// for a steady 24.3) — unless the run is too short to have anything left.
func TestSummarySkipsWarmup(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

	rec := probe.NewSpanRecorder()
	end := feed(rec, 0, 0, 0.100, 1e6)
	for i := 1; i < 4; i++ {
		end = feed(rec, i, end, 0.010, 1e6)
	}
	s := summarize(rec, end)
	if !near(s.tensor0Trip, 0.010) || !near(s.iterTime, 0.016) {
		t.Errorf("4 iterations: trip %.6f s, iteration %.6f s; want the steady 0.010 and 0.016", s.tensor0Trip, s.iterTime)
	}
	// Two post-warm-up iterations of 16 ms each moved 1 MB apiece.
	if want := 2e6 / 0.032; !near(s.uplinkBps/want, 1) {
		t.Errorf("uplink %.0f B/s, want %.0f", s.uplinkBps, want)
	}

	short := probe.NewSpanRecorder()
	end = feed(short, 0, 0, 0.100, 1e6)
	end = feed(short, 1, end, 0.010, 1e6)
	if s = summarize(short, end); !near(s.tensor0Trip, 0.055) {
		t.Errorf("2 iterations: trip %.6f s, want the all-iterations mean 0.055", s.tensor0Trip)
	}

	if s = summarize(probe.NewSpanRecorder(), 0); s != (summary{}) {
		t.Errorf("an empty recorder summarised to %+v, want zeros", s)
	}
}
