// Package fixture exercises the determinism analyzer: every seeded
// violation carries a want expectation, and the adjacent fixed form of
// the same code must stay silent.
package fixture

import (
	"math/rand"
	"sort"
	"time"
)

// Clock is the injected time source the deterministic packages must use.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) *time.Timer
}

func wallClock(clk Clock) time.Duration {
	start := time.Now()   // want "wall-clock read \\(time.Now\\)"
	_ = time.Since(start) // want "wall-clock read \\(time.Since\\)"
	good := clk.Now()
	return clk.Now().Sub(good)
}

func wallTimer(clk Clock, f func()) {
	time.AfterFunc(time.Second, f) // want "wall-clock timer \\(time.AfterFunc\\)"
	clk.AfterFunc(time.Second, f)
}

func globalPRNG(seeded *rand.Rand) int {
	bad := rand.Intn(6)              // want "global math/rand PRNG"
	r := rand.New(rand.NewSource(7)) // constructors for seeded generators are fine
	return bad + r.Intn(6) + seeded.Intn(6)
}

type bus struct {
	ch chan string
}

func (b *bus) Send(s string) {}

func mapOrderSends(pending map[string]bool, b *bus) {
	for p := range pending {
		b.ch <- p // want "channel send inside range over a map"
	}
	for p := range pending {
		b.Send(p) // want "order-sensitive call Send"
	}
}

func accumulateUnsorted(pending map[string]bool) []string {
	var out []string
	for p := range pending { // want "accumulates into \"out\""
		out = append(out, p)
	}
	return out
}

// accumulateSorted is the sanctioned collect-then-sort idiom.
func accumulateSorted(pending map[string]bool, b *bus) {
	names := make([]string, 0, len(pending))
	for p := range pending {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		b.Send(p)
	}
}

// allowedDefault shows a justified, annotated wall-clock read.
func allowedDefault() time.Time {
	//safeadaptvet:allow determinism -- fixture mirror of a sanctioned wall-clock default behind an injectable seam
	return time.Now()
}
