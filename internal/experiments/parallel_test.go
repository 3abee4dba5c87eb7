package experiments

import (
	"bytes"
	"sync"
	"testing"
)

// renderAt runs spec at testCfg on jobs workers and returns its render with
// the live-clock fields masked.
func renderAt(t *testing.T, spec Spec, jobs int) []byte {
	t.Helper()
	cfg := testCfg()
	cfg.Jobs = jobs
	res, err := spec.Run(cfg)
	if err != nil {
		t.Fatalf("jobs=%d: %v", jobs, err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	b := buf.Bytes()
	for _, re := range LiveClock {
		b = re.ReplaceAll(b, []byte("X"))
	}
	return b
}

// serialRenders holds each experiment's Jobs: 1 render, spec ID → []byte.
// Both tests below need it, and rendering the registry is most of this
// package's test time, so it is rendered once.
var serialRenders sync.Map

// serialRender returns spec's non-empty render at Jobs: 1.
func serialRender(t *testing.T, spec Spec) []byte {
	t.Helper()
	if b, ok := serialRenders.Load(spec.ID); ok {
		return b.([]byte)
	}
	b := renderAt(t, spec, 1)
	if len(b) == 0 {
		t.Fatal("empty render")
	}
	serialRenders.Store(spec.ID, b)
	return b
}

// TestEveryExperimentRunsAndRenders runs the full registry: each experiment
// must complete and render non-empty output.
func TestEveryExperimentRunsAndRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, spec := range All() {
		t.Run(spec.ID, func(t *testing.T) {
			t.Parallel()
			serialRender(t, spec)
		})
	}
}

// TestSerialParallelIdentical renders every registered experiment serially
// (Jobs: 1) and on 8 workers (Jobs: 8) and requires byte-identical output.
// This is the determinism contract of the parallel sweep runner: a
// simulation's result depends only on its own engine and seed, never on
// which goroutine computed it, so fanning a sweep across workers must be
// invisible in the results.
func TestSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite twice")
	}
	for _, spec := range All() {
		t.Run(spec.ID, func(t *testing.T) {
			t.Parallel()
			serial := serialRender(t, spec)
			parallel := renderAt(t, spec, 8)
			if !bytes.Equal(serial, parallel) {
				t.Errorf("output differs between Jobs=1 and Jobs=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
					serial, parallel)
			}
		})
	}
}
