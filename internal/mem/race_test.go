//go:build race

package mem

// The race detector makes sync.Pool drop a random quarter of what is
// put in it, so not every released page is reused.
func init() { raceEnabled = true }
