//go:build !race

package baseline

const raceEnabled = false
