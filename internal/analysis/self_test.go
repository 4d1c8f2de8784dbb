package analysis_test

import (
	"slices"
	"testing"

	"repro/internal/analysis"
)

// TestRepositoryIsClean runs the whole safeadaptvet suite over the
// repository itself: the protocol safety invariants the analyzers encode
// must hold on every shipped package, with any exception carried by an
// annotated justification. A failure here is a protocol-discipline
// regression, not a style nit — fix the code or add a justified
// //safeadaptvet:allow, never weaken the analyzer.
func TestRepositoryIsClean(t *testing.T) {
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, pkg := range pkgs {
		for _, d := range analysis.MalformedDirectives(pkg) {
			t.Errorf("%s", d)
		}
	}
	// A scope entry that names no package checks nothing: a deleted or
	// renamed package must leave its analyzers' lists too. Matching goes
	// through AppliesTo, the driver's own rule.
	for _, a := range analysis.All() {
		for _, scope := range a.Packages {
			one := analysis.Analyzer{Packages: []string{scope}}
			if !slices.ContainsFunc(pkgs, func(p *analysis.Package) bool { return one.AppliesTo(p.Path) }) {
				t.Errorf("analyzer %s: Packages entry %q names no package of ./...", a.Name, scope)
			}
		}
	}
	diags, err := analysis.RunAll(analysis.All(), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
