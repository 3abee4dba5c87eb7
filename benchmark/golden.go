package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenSeed is the seed golden.json was recorded at. On any other seed
// the output check is repeat-run equality instead of golden equality.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// golden pins every workload's outputs at goldenSeed.
type golden struct {
	Seed uint64 `json:"seed"`
	// Sim values are compared exactly.
	Sim simGolden `json:"sim_sweep"`
	// Live maps a live workload to the loss trajectory of one block,
	// compared to rel. 1e-9.
	Live map[string][]float64 `json:"live_losses"`
}

type simGolden struct {
	PS       simHalf `json:"ps"`
	Ring     simHalf `json:"ring"`
	FifoRate float64 `json:"fifo_rate"`
}

// simHalf is one half of the sim-sweep op: the simulated steady-state
// rate, the simulated duration and the decision-Record count.
type simHalf struct {
	Rate     float64 `json:"rate"`
	Duration float64 `json:"duration"`
	Records  int     `json:"records"`
}

// goldenFor returns the golden values that apply to a run, or nil when the
// run checks repeat-run equality instead (another seed, or the run that
// records the golden file).
func goldenFor(o options) *golden {
	if o.seed != goldenSeed || o.updateGolden {
		return nil
	}
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil || g.Seed != goldenSeed {
		// An unreadable golden file must fail the check, not skip it.
		return &golden{}
	}
	return &g
}

// updateGolden records every workload's outputs at goldenSeed and rewrites
// golden.json in the benchmark's source directory.
func updateGolden(dir string) error {
	o := options{seed: goldenSeed, updateGolden: true}
	g := golden{Seed: goldenSeed, Live: map[string][]float64{}}
	for _, w := range workloads {
		e, err := w.setUp(o, 0)
		if err != nil {
			return err
		}
		// One full op extends a live trajectory to its block length.
		if _, err := e.op(nil, nil); err != nil {
			return err
		}
		e.observed(&g)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "golden.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
