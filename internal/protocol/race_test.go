//go:build race

package protocol

// raceEnabled: under the race detector sync.Pool drops items at random, so
// allocation counts of pooled paths mean nothing.
const raceEnabled = true
