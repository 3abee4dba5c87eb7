package emu

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain holds every emu.Run in the package to the failure contract's
// last clause — no goroutine left behind — not only the collective tests
// that check it around themselves: PS chaos, fault policies, mux, mirror
// and scale runs all happen between the two counts. It also runs under
// `make race`.
func TestMain(m *testing.M) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
	if dump := leakedGoroutines(baseline); dump != "" && code == 0 {
		fmt.Fprintf(os.Stderr, "emu: the suite left goroutines behind: %s", dump)
		code = 1
	}
	os.Exit(code)
}

// leakedGoroutines waits up to 5 s for the goroutine count to fall back to
// baseline — exits a run does not wait for are given a moment to finish —
// and returns "" when it has, else the counts and every remaining stack.
func leakedGoroutines(baseline int) string {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			return fmt.Sprintf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
	return ""
}
