package explore

import (
	"fmt"

	"repro/internal/paper"
	"repro/internal/spec"
)

// FleetModel returns the fleet-plane exploration instance: the paper's
// video multicast grown to four processes — one encoding server and
// three decoder hosts — adapted from DES-64 to DES-128 through a
// hierarchical control plane with fan-out 2. The resulting tree is the
// smallest one with something to aggregate at every level: one root
// manager, two coordinators, four agents, with each adaptation step
// spanning both coordinator shards (the server is conscripted upstream
// of every decoder swap).
//
// The minimal adaptation path has two steps: first the handheld trades
// its 64-bit decoder for the dual-rate D2 (safe under the still-running
// 64-bit encoder), then one compound step swaps the encoder and the two
// remaining single-rate decoders together — any cheaper ordering leaves
// an intermediate configuration that violates a dependency invariant,
// which is exactly what the planner must refuse.
func FleetModel() (*Model, error) {
	sys := &spec.System{
		Name: "dsn04-fleet-multicast",
		Components: []spec.ComponentSpec{
			{Name: "E1", Process: paper.ProcessServer, Description: "DES 64-bit encoder", Emits: "des64"},
			{Name: "E2", Process: paper.ProcessServer, Description: "DES 128-bit encoder", Emits: "des128"},
			{Name: "D1", Process: paper.ProcessHandheld, Description: "DES 64-bit decoder", Accepts: []string{"des64"}},
			{Name: "D2", Process: paper.ProcessHandheld, Description: "DES 128/64-bit compatible decoder", Accepts: []string{"des64", "des128"}},
			{Name: "D4", Process: paper.ProcessLaptop, Description: "DES 64-bit decoder", Accepts: []string{"des64"}},
			{Name: "D5", Process: paper.ProcessLaptop, Description: "DES 128-bit decoder", Accepts: []string{"des128"}},
			{Name: "D6", Process: "tablet", Description: "DES 64-bit decoder", Accepts: []string{"des64"}},
			{Name: "D7", Process: "tablet", Description: "DES 128-bit decoder", Accepts: []string{"des128"}},
		},
		Invariants: []spec.InvariantSpec{
			{Name: "security", Kind: "structural", Predicate: "oneof(E1, E2)"},
			{Name: "handheld-decoder", Kind: "structural", Predicate: "oneof(D1, D2)"},
			{Name: "laptop-decoder", Kind: "structural", Predicate: "oneof(D4, D5)"},
			{Name: "tablet-decoder", Kind: "structural", Predicate: "oneof(D6, D7)"},
			{Name: "E1-deps", Kind: "dependency", Predicate: "E1 -> (D1 | D2) & D4 & D6"},
			{Name: "E2-deps", Kind: "dependency", Predicate: "E2 -> D2 & D5 & D7"},
		},
		Actions: []spec.ActionSpec{
			{ID: "F1", Operation: "D1 -> D2", CostMillis: 10, Description: "handheld to dual-rate decoder"},
			{ID: "F2", Operation: "(D4, D6, E1) -> (D5, D7, E2)", CostMillis: 50, Description: "swap encoder and single-rate decoders"},
			{ID: "F3", Operation: "E1 -> E2", CostMillis: 10, Description: "swap encoder alone (never safe mid-path)"},
			{ID: "F4", Operation: "D4 -> D5", CostMillis: 10, Description: "swap laptop decoder alone"},
			{ID: "F5", Operation: "D6 -> D7", CostMillis: 10, Description: "swap tablet decoder alone"},
		},
		Source:   spec.ConfigSpec{Components: []string{"E1", "D1", "D4", "D6"}},
		Target:   spec.ConfigSpec{Components: []string{"E2", "D2", "D5", "D7"}},
		Dataflow: []string{paper.ProcessServer},
	}
	c, err := sys.Compile()
	if err != nil {
		return nil, fmt.Errorf("explore: fleet model: %w", err)
	}
	m := ModelOf(c)
	m.FleetFanout = 2
	return m, nil
}
