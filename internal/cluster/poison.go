//go:build !race

package cluster

// poison is off outside the race build: the fills compile away.
const poison = false
