//go:build !race

package collective

const raceEnabled = false
