//go:build race

package emu

// raceEnabled lets allocation-count tests skip their bounds: the race
// detector's instrumentation adds allocations of its own.
const raceEnabled = true
