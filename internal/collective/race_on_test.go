//go:build race

package collective

// raceEnabled lets allocation-count tests skip exact-zero assertions: the
// race detector's instrumentation adds allocations of its own.
const raceEnabled = true
