package main

import "testing"

// TestRun runs the example end to end; run fails when the example's own
// safety verdict does.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
