// Command tracecheck validates the run document prophet-run -out writes: the
// trace-smoke make target runs prophet-run on both execution paths and
// passes the results through this gate, so a broken exporter fails CI
// instead of producing a file the trace viewer silently rejects or a
// section jq finds empty.
//
// Usage:
//
//	tracecheck run.json [more.json ...]
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// event mirrors prophet-run's trace event but keeps pointer fields so
// missing keys are distinguishable from zero values.
type event struct {
	Name *string  `json:"name"`
	Ph   *string  `json:"ph"`
	Ts   *float64 `json:"ts"`
	Dur  *float64 `json:"dur"`
	Pid  *int     `json:"pid"`
	Tid  *int     `json:"tid"`
}

// document holds the sections the gate reads; pointers and raw values keep
// a missing key distinguishable from an empty one.
type document struct {
	Version     *int               `json:"version"`
	Config      map[string]any     `json:"config"`
	Summary     map[string]float64 `json:"summary"`
	Gradients   []json.RawMessage  `json:"gradients"`
	Attribution *struct {
		PerGrad []json.RawMessage
	} `json:"attribution"`
	Audit *struct {
		Planned int `json:"planned"`
	} `json:"audit"`
	TraceEvents []event `json:"traceEvents"`
}

func check(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !json.Valid(data) {
		return fmt.Errorf("%s: invalid JSON", path)
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: not a run document: %w", path, err)
	}
	switch {
	case doc.Version == nil || *doc.Version != 1:
		return fmt.Errorf("%s: version is not 1", path)
	case doc.Summary == nil:
		return fmt.Errorf("%s: no summary object", path)
	case len(doc.Gradients) == 0:
		return fmt.Errorf("%s: no gradients", path)
	case doc.Attribution == nil || len(doc.Attribution.PerGrad) == 0:
		return fmt.Errorf("%s: no attribution rows", path)
	}
	// A shaped link has a rate to predict from, so its run is audited.
	if bw := doc.Config["bandwidth"]; bw != 0.0 && (doc.Audit == nil || doc.Audit.Planned <= 0) {
		return fmt.Errorf("%s: bandwidth %v but no planned send windows audited", path, bw)
	}
	events := doc.TraceEvents
	if len(events) == 0 {
		return fmt.Errorf("%s: empty trace", path)
	}
	for i, e := range events {
		switch {
		case e.Name == nil || *e.Name == "":
			return fmt.Errorf("%s: event %d: missing name", path, i)
		case e.Ph == nil || *e.Ph == "":
			return fmt.Errorf("%s: event %d: missing ph", path, i)
		case e.Ts == nil:
			return fmt.Errorf("%s: event %d: missing ts", path, i)
		case e.Dur == nil:
			return fmt.Errorf("%s: event %d: missing dur", path, i)
		case e.Pid == nil || e.Tid == nil:
			return fmt.Errorf("%s: event %d: missing pid/tid", path, i)
		case *e.Ts < 0 || *e.Dur < 0:
			return fmt.Errorf("%s: event %d: negative ts/dur", path, i)
		}
	}
	fmt.Printf("%s: %d events, %d gradients, %d attribution rows ok\n",
		path, len(events), len(doc.Gradients), len(doc.Attribution.PerGrad))
	return nil
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <run.json> [...]")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		if err := check(path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
