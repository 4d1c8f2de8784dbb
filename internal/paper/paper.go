// Package paper names the DSN 2004 case study (Sec. 5) and holds the
// answers its evaluation is checked against: Table 1's safe set, Fig. 4's
// SAG and the minimum adaptation path. The case study itself — the video
// multicast system's components and codec tags, invariants, adaptive
// actions (Table 2) and adaptation request — is declared once, in
// spec.PaperSystem; NewScenario compiles it.
package paper

import (
	"time"

	"repro/internal/spec"
)

// Process names of the case study (Fig. 3).
const (
	ProcessServer   = "server"
	ProcessHandheld = "handheld"
	ProcessLaptop   = "laptop"
)

// Table1Vectors is the expected safe configuration set of Table 1, in the
// paper's row order (left column top-to-bottom, then right column).
var Table1Vectors = []string{
	"0100101", // D4, D1, E1
	"1101001", // D5, D4, D2, E1
	"1110010", // D5, D4, D3, E2
	"1001010", // D5, D2, E2
	"1100101", // D5, D4, D1, E1
	"1101010", // D5, D4, D2, E2
	"0101001", // D4, D2, E1
	"1010010", // D5, D3, E2
}

// MAPActionIDs is the paper's reported minimum adaptation path (Sec. 5.1).
var MAPActionIDs = []string{"A2", "A17", "A1", "A16", "A4"}

// MAPCost is the paper's reported MAP cost.
const MAPCost = 50 * time.Millisecond

// Figure4Edges lists the arcs of the SAG derived from Table 1 × Table 2,
// as "fromVector --Ax--> toVector" strings, sorted lexicographically.
// Fig. 4 as printed shows fourteen of these sixteen arcs; the two extra
// arcs (A6 and A8, both compound replacements) map safe configurations to
// safe configurations under the paper's own rules but are cost-dominated
// and never appear on a minimum path, so the figure omits them.
// EXPERIMENTS.md records the discrepancy.
var Figure4Edges = []string{
	"0100101 --A13--> 1001010", // (D1,D4,E1)->(D2,D5,E2)
	"0100101 --A14--> 1010010", // (D1,D4,E1)->(D3,D5,E2): direct source->target
	"0100101 --A17--> 1100101", // +D5
	"0100101 --A2--> 0101001",  // D1->D2
	"0101001 --A15--> 1010010", // (D2,D4,E1)->(D3,D5,E2)
	"0101001 --A17--> 1101001", // +D5
	"0101001 --A9--> 1001010",  // (D4,E1)->(D5,E2)
	"1001010 --A4--> 1010010",  // D2->D3
	"1100101 --A2--> 1101001",  // D1->D2
	"1100101 --A6--> 1101010",  // (D1,E1)->(D2,E2)  [not drawn in Fig. 4]
	"1100101 --A7--> 1110010",  // (D1,E1)->(D3,E2)
	"1101001 --A1--> 1101010",  // E1->E2
	"1101001 --A8--> 1110010",  // (D2,E1)->(D3,E2)  [not drawn in Fig. 4]
	"1101010 --A16--> 1001010", // -D4
	"1101010 --A4--> 1110010",  // D2->D3
	"1110010 --A16--> 1010010", // -D4
}

// Scenario is the compiled case study: registry (whose registration order
// E1,E2,D1,D2,D3,D4,D5 yields the paper's 7-bit vector notation
// D5,D4,D3,D2,D1,E2,E1), invariants, Table 2's actions, the source →
// target request, the codec tags and the dataflow.
type Scenario = spec.Compiled

// NewScenario compiles the case study's one declaration,
// spec.PaperSystem.
func NewScenario() (*Scenario, error) {
	return spec.PaperSystem().Compile()
}

// MustScenario is NewScenario that panics on error.
func MustScenario() *Scenario {
	s, err := NewScenario()
	if err != nil {
		panic(err)
	}
	return s
}
