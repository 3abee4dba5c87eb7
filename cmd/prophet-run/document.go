package main

import (
	"encoding/json"
	"flag"
	"fmt"

	"prophet/internal/cluster"
	"prophet/internal/emu"
	"prophet/internal/probe"
	"prophet/internal/probe/attrib"
	"prophet/internal/probe/predict"
)

// document is the run's whole account, the one file -out writes. It follows
// the trace-event format's JSON Object Format — a traceEvents array beside
// metadata keys — so chrome://tracing and Perfetto open it as is, and every
// other key is one view of the same run for jq or a diff: the flags it ran
// with, the shared summary block, worker 0's timeline, every gradient's
// lifecycle, the stall attribution and the prediction audit.
type document struct {
	Version     int               `json:"version"`
	Config      map[string]any    `json:"config"`
	Summary     summary           `json:"summary"`
	Phases      *emu.PhaseTimes   `json:"phases,omitempty"`
	Timeline    timeline          `json:"timeline"`
	Gradients   []probe.GradTimes `json:"gradients"`
	Attribution *attrib.Report    `json:"attribution"`
	Audit       *predict.Report   `json:"audit,omitempty"`
	TraceEvents []traceEvent      `json:"traceEvents"`
}

// timeline is worker 0's series in bins of Bin seconds from the run's
// start: the uplink payload always, GPU utilization on the simulator and the
// downlink payload on its PS wire.
type timeline struct {
	Bin      float64   `json:"bin_s"`
	GPU      []float64 `json:"gpu_util,omitempty"`
	Uplink   []float64 `json:"uplink_Bps"`
	Downlink []float64 `json:"downlink_Bps,omitempty"`
}

// MarshalJSON names the summary block's figures in the document.
func (s summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]float64{
		"iter_time_s":    s.iterTime,
		"tensor0_trip_s": s.tensor0Trip,
		"uplink_Bps":     s.uplinkBps,
	})
}

// newDocument renders the run's account as JSON. The auditor's report is
// nil where no auditor listened (an unshaped link), and the document then
// has no audit key.
func newDocument(fs *flag.FlagSet, rec *probe.SpanRecorder, acct account, sum summary, audit *predict.Report) ([]byte, error) {
	up := rec.Rate(0)
	if up == nil {
		return nil, fmt.Errorf("no transfers recorded for worker 0")
	}
	doc := document{
		Version:     1,
		Config:      map[string]any{},
		Summary:     sum,
		Phases:      acct.phases,
		Timeline:    timeline{Bin: acct.bin, Uplink: up.Timeline(0, acct.end, acct.bin)},
		Gradients:   rec.Grads(),
		Attribution: attrib.Analyze(rec, 3),
		Audit:       audit,
		TraceEvents: append(chromeTraceSpans(rec), acct.tracks...),
	}
	fs.VisitAll(func(f *flag.Flag) { doc.Config[f.Name] = f.Value.(flag.Getter).Get() })
	if acct.gpu != nil {
		doc.Timeline.GPU = acct.gpu.Timeline(0, acct.end, acct.bin)
	}
	if acct.down != nil {
		doc.Timeline.Downlink = acct.down.Timeline(0, acct.end, acct.bin)
	}
	raw, err := json.Marshal(doc)
	return append(raw, '\n'), err
}

// traceEvent is one Chrome trace-event entry (the "X" complete-event form).
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// chromeTraceSpans converts a probe SpanRecorder — fed by either executor —
// into Chrome trace events: one process per worker with an iteration track
// (tid 0), one track per lane (tid 1+lane) carrying a complete span per
// wire send, and fault-injection markers on tid 99. Events are ordered
// deterministically (workers ascending; spans by worker/lane/start/seq;
// faults by record order), so equal recordings render byte-identical JSON.
func chromeTraceSpans(rec *probe.SpanRecorder) []traceEvent {
	var events []traceEvent
	for _, w := range rec.Workers() {
		log := rec.Iterations(w)
		if log == nil {
			continue
		}
		for i := range log.Starts {
			events = append(events, traceEvent{
				Name: "iteration", Ph: "X",
				Ts: log.Starts[i] * 1e6, Dur: (log.Ends[i] - log.Starts[i]) * 1e6,
				Pid: w, Tid: 0,
			})
		}
	}
	for _, s := range rec.Spans() {
		events = append(events, traceEvent{
			Name: s.Label, Ph: "X",
			Ts: s.Start * 1e6, Dur: (s.End - s.Start) * 1e6,
			Pid: s.Worker, Tid: 1 + s.Lane,
		})
	}
	for _, f := range rec.Faults() {
		events = append(events, traceEvent{
			Name: "fault:" + f.Kind, Ph: "X",
			Ts: f.Time * 1e6, Dur: 0,
			Pid: f.Worker, Tid: 99,
		})
	}
	return events
}

// The simulator's own tracks sit past the fault markers' tid 99, clear of
// every lane track.
const (
	gpuTid  = 100
	downTid = 101
)

// simTracks renders the two tracks only a simulated run keeps, beside the
// recorder's spans: every worker's compute intervals and, on the PS wire
// with RecordLinks set, its downlink pulls.
func simTracks(res *cluster.Result) []traceEvent {
	var events []traceEvent
	for w, gpu := range res.GPU {
		for _, iv := range gpu.Intervals() {
			events = append(events, traceEvent{
				Name: "gpu", Ph: "X",
				Ts: iv.Start * 1e6, Dur: iv.Duration() * 1e6,
				Pid: w, Tid: gpuTid,
			})
		}
	}
	for w, recs := range res.DownRecords {
		for _, r := range recs {
			events = append(events, traceEvent{
				Name: r.Tag, Ph: "X",
				Ts: r.Start * 1e6, Dur: (r.End - r.Start) * 1e6,
				Pid: w, Tid: downTid,
			})
		}
	}
	return events
}
