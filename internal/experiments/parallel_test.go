package experiments

import (
	"bytes"
	"testing"
)

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
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			t.Parallel()
			render := func(jobs int) []byte {
				res, err := spec.Run(Config{Quick: true, Seed: 7, Jobs: jobs})
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
			serial := render(1)
			parallel := render(8)
			if !bytes.Equal(serial, parallel) {
				t.Errorf("output differs between Jobs=1 and Jobs=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
					serial, parallel)
			}
		})
	}
}
