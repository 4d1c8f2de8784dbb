// Package fixture exercises the hotpath analyzer: functions annotated
// //safeadaptvet:hotpath — and their statically resolved package-local
// callees — must be allocation-free.
package fixture

import (
	"fmt"
	"slices"
)

type point struct{ x, y int }

// sum is allocation-free: silent.
//
//safeadaptvet:hotpath
func sum(b []byte) int {
	s := 0
	for _, x := range b {
		s += int(x)
	}
	return s
}

//safeadaptvet:hotpath
func alloc(n int) []byte {
	return make([]byte, n) // want "make \\(allocates\\)"
}

//safeadaptvet:hotpath
func grow(dst, src []byte) []byte {
	return append(dst, src...) // want "append \\(can grow and allocate\\)"
}

//safeadaptvet:hotpath
func literals() int {
	s := []int{1, 2}             // want "slice literal"
	m := map[string]int{}        // want "map literal"
	p := &point{1, 2}            // want "heap-allocates"
	f := func() int { return 1 } // want "closure literal"
	return s[0] + len(m) + p.x + f()
}

//safeadaptvet:hotpath
func concat(a, b string) string {
	return a + b // want "string concatenation"
}

//safeadaptvet:hotpath
func convert(b []byte) string {
	return string(b) // want "conversion \\(copies\\)"
}

// A string(b) conversion that is a map index's key is looked up in
// place, not copied: silent. Anywhere else in the same expression it
// still copies.
//
//safeadaptvet:hotpath
func mapKey(m map[string]int, b []byte) int {
	return m[string(b)] + len(string(b)) // want "conversion \\(copies\\)"
}

// A generic callee is instantiated over the concrete argument type; its
// type parameter's constraint is an interface but nothing is boxed:
// silent.
//
//safeadaptvet:hotpath
func generic(b []byte, n int) []byte {
	return slices.Grow(b, n)
}

//safeadaptvet:hotpath
func boxAssign(v int) {
	var i interface{}
	i = v // want "interface boxing \\(allocates\\)"
	_ = i
}

//safeadaptvet:hotpath
func boxReturn(v int) any {
	return v // want "interface boxing at return"
}

// helper is not annotated itself, but the hot path reaches it through a
// static call: the allocation is charged to the hot path.
func helper(n int) int {
	xs := make([]int, n) // want "make \\(allocates\\)"
	return len(xs)
}

//safeadaptvet:hotpath
func callsHelper(n int) int {
	return helper(n)
}

// structValue is stack space, not an allocation: silent.
//
//safeadaptvet:hotpath
func structValue() int {
	p := point{1, 2}
	return p.x
}

// dynamic calls are not resolved or flagged — the analyzer
// under-approximates rather than guess: silent.
//
//safeadaptvet:hotpath
func dynamic(f func() int) int {
	return f()
}

// errPath allocates only after the hot path has already failed; the
// annotation sanctions exactly that line.
//
//safeadaptvet:hotpath
func errPath(seq int, ok bool) error {
	if !ok {
		//safeadaptvet:allow hotpath -- fixture: error construction after the fast path has failed
		return fmt.Errorf("frame %d not ready", seq)
	}
	return nil
}

// boxVariadic passes a concrete value into a ...any tail — each element
// boxes.
//
//safeadaptvet:hotpath
func boxVariadic(seq int) error {
	return fmt.Errorf("frame %d dropped", seq) // want "interface boxing at call argument"
}

// notAnnotated is outside every hot path: silent.
func notAnnotated(n int) []byte {
	return make([]byte, n)
}
