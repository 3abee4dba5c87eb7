//go:build race

package drive

// poison fills released pool entries with values no live entry holds, so a
// use after release shows up in the race build's tests.
const poison = true
