package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The transfer CSV has no worker column, so it must hold worker 0's rows
// only — one per (iteration, tensor) — on every path. The emu and
// collective paths used to write every worker's entries interleaved.
func TestEmuTransferCSVIsWorkerZeroOnly(t *testing.T) {
	const iters, tensors = 4, 6 // the MLP below has 2×(layers−1) tensors
	for _, transport := range []string{"ps", "ring"} {
		path := filepath.Join(t.TempDir(), transport+".csv")
		runEmu(emuConfig{
			batch: 16, workers: 3, hidden: 16, bandwidth: 3000,
			policy: "fifo", iters: iters, seed: 1, transport: transport,
		}, outputs{xfer: path})
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rows := strings.Count(string(raw), "\n") - 1 // minus the header
		if rows != iters*tensors {
			t.Fatalf("%s: %d transfer rows, want %d (iterations × tensors)", transport, rows, iters*tensors)
		}
	}
}
