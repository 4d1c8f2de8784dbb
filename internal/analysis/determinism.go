package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeterminismAnalyzer enforces the replayability contract of the
// protocol's deterministic core: the packages the explorer model-checks
// (and replays by seed) must not read the wall clock, arm a wall-clock
// timer, draw from the
// process-global PRNG, or let Go's randomized map iteration order decide
// the order of sends or other order-sensitive effects.
//
// The map-iteration rule is the one that already bit this codebase: the
// manager's resume wave once iterated a pending-set map to build its send
// order, so identical schedules produced different traces (fixed in the
// exploration PR by iterating the sorted participants slice). The wall
// clock and global PRNG rules keep seeded exploration honest: injected
// Clock/PRNG call sites are the only sanctioned sources of time and
// randomness, and the rare justified wall-clock defaults carry
// //safeadaptvet:allow annotations.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads (time.Now/time.Since) and timers " +
		"(time.AfterFunc), global-PRNG draws " +
		"(package-level math/rand), and map-iteration order feeding sends or " +
		"other order-sensitive effects inside the deterministic packages; " +
		"time and randomness must come from the injected Clock/PRNG",
	Packages: []string{
		"repro/internal/explore",
		"repro/internal/fleet",
		"repro/internal/fleetobs",
		"repro/internal/netsim",
		"repro/internal/simnet",
		"repro/internal/manager",
		"repro/internal/replica",
		"repro/internal/agent",
		"repro/internal/planner",
		"repro/internal/baseline",
	},
	Run: runDeterminism,
}

// orderSensitiveCalls are callee names whose invocation order is
// observable — transport sends, journal appends, flight-recorder records,
// log/event emission — so feeding them from a map range is a
// replay-divergence bug.
var orderSensitiveCalls = map[string]bool{
	"Send": true, "send": true, "sendMsg": true, "Deliver": true,
	"deliver": true, "Record": true, "Append": true, "Write": true,
	"WriteFrame": true, "push": true, "Push": true, "Publish": true,
	"Log": true, "Logf": true, "logf": true, "Event": true, "Eventf": true,
	"flightEvent": true, "journal": true,
}

func runDeterminism(pass *Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			fn, _ := pass.TypesInfo.Uses[n.Sel].(*types.Func)
			switch {
			case isFunc(fn, "time", "Now"):
				pass.Reportf(n.Pos(), "wall-clock read (time.Now) in a deterministic package; use the injected Clock")
			case isFunc(fn, "time", "Since"):
				pass.Reportf(n.Pos(), "wall-clock read (time.Since) in a deterministic package; use the injected Clock and Sub")
			case isFunc(fn, "time", "AfterFunc"):
				pass.Reportf(n.Pos(), "wall-clock timer (time.AfterFunc) in a deterministic package; use the injected Clock's AfterFunc")
			case fn != nil && fn.Pkg() != nil && isGlobalRandFunc(fn):
				pass.Reportf(n.Pos(), "global math/rand PRNG (%s.%s) in a deterministic package; use a seeded *rand.Rand", fn.Pkg().Name(), fn.Name())
			}
		case *ast.RangeStmt:
			checkMapRange(pass, n)
		}
		return true
	})
	return nil
}

// isGlobalRandFunc reports whether fn is a package-level function of
// math/rand (or math/rand/v2) that draws from the shared global source.
// The constructors for explicitly seeded generators are fine.
func isGlobalRandFunc(fn *types.Func) bool {
	pkg := fn.Pkg().Path()
	if pkg != "math/rand" && pkg != "math/rand/v2" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return false
	}
	return true
}

// checkMapRange flags `range m` over a map whose body performs an
// order-sensitive effect: a channel send, a call with an order-sensitive
// name, or accumulation (append) into a variable declared outside the
// loop — unless that accumulator is sorted immediately after the loop,
// the idiomatic deterministic way to drain a map.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	var accumulators []*types.Var
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a literal defined here runs later, on its own schedule
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside range over a map: iteration order is randomized, so the send order diverges between replays; iterate a sorted slice instead")
			return true
		case *ast.CallExpr:
			name := calleeName(pass, n)
			if orderSensitiveCalls[name] {
				pass.Reportf(n.Pos(), "order-sensitive call %s inside range over a map: iteration order is randomized, so replayed schedules diverge; iterate a sorted slice instead", name)
				return true
			}
			if name == "append" {
				if v := appendTarget(pass, n); v != nil && !within(v.Pos(), rng) {
					accumulators = append(accumulators, v)
				}
			}
		}
		return true
	})
	for _, v := range accumulators {
		if sortedAfter(pass, rng, v) {
			continue
		}
		pass.Reportf(rng.Pos(), "range over a map accumulates into %q in iteration order; sort the result or iterate a sorted slice", v.Name())
	}
}

// calleeName returns the bare name of a call's function or method, or ""
// (covering builtins like append via the identifier itself).
func calleeName(pass *Pass, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// appendTarget resolves `x = append(x, ...)` to the variable x receiving
// the result, looking at the enclosing assignment.
func appendTarget(pass *Pass, call *ast.CallExpr) *types.Var {
	if len(call.Args) == 0 {
		return nil
	}
	if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
			return v
		}
	}
	return nil
}

func within(pos token.Pos, n ast.Node) bool {
	return n.Pos() <= pos && pos < n.End()
}

// sortedAfter reports whether one of the few statements following rng in
// its enclosing block sorts v (sort.* or slices.Sort*), which restores
// determinism for the collect-then-sort idiom.
func sortedAfter(pass *Pass, rng *ast.RangeStmt, v *types.Var) bool {
	block := enclosingBlock(pass, rng)
	if block == nil {
		return false
	}
	seen := false
	for _, st := range block.List {
		if st == ast.Stmt(rng) {
			seen = true
			continue
		}
		if !seen {
			continue
		}
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.callee(call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			pkg := fn.Pkg().Path()
			if pkg != "sort" && pkg != "slices" {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(a ast.Node) bool {
					if id, ok := a.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
						found = true
					}
					return !found
				})
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// enclosingBlock finds the innermost block statement containing n.
func enclosingBlock(pass *Pass, n ast.Node) *ast.BlockStmt {
	var best *ast.BlockStmt
	for _, f := range pass.Files {
		if !within(n.Pos(), f) {
			continue
		}
		ast.Inspect(f, func(m ast.Node) bool {
			if m == nil || !within(n.Pos(), m) {
				return m == nil || false
			}
			if b, ok := m.(*ast.BlockStmt); ok {
				for _, st := range b.List {
					if st == n {
						best = b
					}
				}
			}
			return true
		})
	}
	return best
}
