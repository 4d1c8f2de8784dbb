//go:build race

package baseline

// raceEnabled: under the race detector a frame's cipher work alone takes
// about the millisecond a timing bound on the send path is stated in.
const raceEnabled = true
