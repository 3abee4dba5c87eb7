package experiments

import (
	"strings"
	"testing"
)

func TestWithDefaults(t *testing.T) {
	t.Run("defaults", func(t *testing.T) {
		c, err := Config{}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		if c.Iterations != 12 || c.Warmup != 2 || c.Seed != 1 || c.Jobs != 1 {
			t.Fatalf("defaults = %+v", c)
		}
	})
	t.Run("negative warmup", func(t *testing.T) {
		if _, err := (Config{Iterations: 20, Warmup: -1}).withDefaults(); err == nil {
			t.Fatal("negative Warmup accepted")
		}
	})
	t.Run("iterations must exceed warmup", func(t *testing.T) {
		for _, cfg := range []Config{
			{Iterations: 3, Warmup: 3},
			{Iterations: 2, Warmup: 5},
			{Iterations: 2}, // default warmup is 2
		} {
			_, err := cfg.withDefaults()
			if err == nil {
				t.Errorf("%+v: no error for Iterations <= Warmup", cfg)
			} else if !strings.Contains(err.Error(), "must exceed Warmup") {
				t.Errorf("%+v: unclear error %q", cfg, err)
			}
		}
	})
	t.Run("negative iterations", func(t *testing.T) {
		if _, err := (Config{Iterations: -4}).withDefaults(); err == nil {
			t.Fatal("negative Iterations accepted")
		}
	})
	t.Run("experiments surface the error", func(t *testing.T) {
		// The guard must reach callers, not just withDefaults itself.
		if _, err := run[*Fig12Result]("fig12", Config{Iterations: 2, Warmup: 5}); err == nil {
			t.Fatal("fig12 accepted Iterations <= Warmup")
		}
	})
}
