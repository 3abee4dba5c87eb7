//go:build !race

package drive

// poison is off outside the race build: the fills compile away.
const poison = false
