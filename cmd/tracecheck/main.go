// Command tracecheck validates a Chrome trace-event JSON file: the
// trace-smoke make target runs prophet-run -out on both execution paths and
// passes the results through this gate, so a broken exporter fails CI
// instead of producing a file the trace viewer silently rejects.
//
// Usage:
//
//	tracecheck trace.json [more.json ...]
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// event mirrors trace.Event but keeps pointer fields so missing keys are
// distinguishable from zero values.
type event struct {
	Name *string  `json:"name"`
	Ph   *string  `json:"ph"`
	Ts   *float64 `json:"ts"`
	Dur  *float64 `json:"dur"`
	Pid  *int     `json:"pid"`
	Tid  *int     `json:"tid"`
}

func check(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !json.Valid(data) {
		return fmt.Errorf("%s: invalid JSON", path)
	}
	var events []event
	if err := json.Unmarshal(data, &events); err != nil {
		return fmt.Errorf("%s: not a trace-event array: %w", path, err)
	}
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
	fmt.Printf("%s: %d events ok\n", path, len(events))
	return nil
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <trace.json> [...]")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		if err := check(path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
