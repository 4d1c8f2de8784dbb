package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAnalyzer enforces allocation-freedom on functions annotated
//
//	//safeadaptvet:hotpath
//
// (comment directly above the declaration). The per-packet MetaSocket
// path — filter chain → resetting-flag check → transport write — runs
// once per datagram; a single hidden allocation there is a per-packet
// GC tax that ROADMAP item 5's zero-copy plan exists to remove, and
// allocations regress silently (an innocent refactor boxes a value or
// grows a slice and no test notices). The annotation turns the
// performance intent into a checked contract.
//
// Inside an annotated function — and, transitively, inside every
// package-local function it statically calls — the analyzer flags the
// constructs that allocate: make/new, slice, map, and struct composite
// literals, &T{…}, closure literals, append, string concatenation,
// string↔[]byte conversions, and implicit interface boxing of non-
// interface values at assignments, arguments, and returns. Indexing a
// map with a converted []byte key is exempt (the compiler elides that
// copy). Calls through function values or interfaces are not followed
// or flagged — the analyzer under-approximates rather than guess.
// Error paths that allocate only after the hot path has already failed
// carry per-line allow directives.
var HotPathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc: "functions annotated //safeadaptvet:hotpath (and their package-local " +
		"callees) must be allocation-free: no make/new/literals/append/closures, " +
		"no string concat or conversions, no interface boxing",
	Run: runHotPath,
}

const hotpathDirective = "//safeadaptvet:hotpath"

func runHotPath(pass *Pass) error {
	// Collect the annotated roots and an index of every package function
	// body so the check can follow static package-local calls.
	bodies := map[*types.Func]*ast.FuncDecl{}
	var roots []*types.Func

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			bodies[fn] = fd
			if hasHotPathDirective(fd) {
				roots = append(roots, fn)
			}
		}
	}

	// Transitive closure over static package-local calls. Each function is
	// checked once even when reachable from several roots.
	checked := map[*types.Func]bool{}
	var check func(fn *types.Func, via string)
	check = func(fn *types.Func, via string) {
		if checked[fn] {
			return
		}
		checked[fn] = true
		fd := bodies[fn]
		if fd == nil {
			return
		}
		checkHotBody(pass, fd, via, func(callee *types.Func) {
			if _, ok := bodies[callee]; ok {
				check(callee, via)
			}
		})
	}
	for _, root := range roots {
		check(root, root.Name())
	}
	return nil
}

func hasHotPathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotpathDirective {
			return true
		}
	}
	return false
}

// checkHotBody flags allocating constructs in one function body and
// reports package-local callees to follow. Function literals are treated
// as allocations themselves (a closure allocates), so their bodies are
// not descended into.
func checkHotBody(pass *Pass, fd *ast.FuncDecl, via string, follow func(*types.Func)) {
	// Reportf performs the allow-directive suppression itself and records
	// each suppressed finding in the pass ledger (surfaced by `vet -json`),
	// so no allowedAt pre-check here.
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "%s on the %s hot path: annotated //safeadaptvet:hotpath functions must be allocation-free (per-packet GC tax)", what, via)
	}

	// elided holds the string(b) conversions that index a map: the
	// compiler looks the key up in place, without the copy. Inspect visits
	// the index expression before the conversion inside it.
	elided := map[*ast.CallExpr]bool{}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure literal (allocates)")
			return false
		case *ast.IndexExpr:
			if _, ok := pass.typeOf(n.X).Underlying().(*types.Map); ok {
				if key, ok := ast.Unparen(n.Index).(*ast.CallExpr); ok {
					elided[key] = true
				}
			}
		case *ast.CompositeLit:
			tv := pass.typeOf(n)
			if tv == nil {
				report(n.Pos(), "composite literal (allocates)")
				return true
			}
			switch tv.Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal (allocates)")
			case *types.Map:
				report(n.Pos(), "map literal (allocates)")
			default:
				// A plain struct literal assigned to a value is stack
				// space, but &T{…} (and any literal the compiler must
				// heap-allocate through escape) is not provable here;
				// only flag the address-taken form, detected at the
				// UnaryExpr below.
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "&T{…} literal (heap-allocates)")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(pass.typeOf(n.X)) {
				report(n.Pos(), "string concatenation (allocates)")
			}
		case *ast.CallExpr:
			return checkHotCall(pass, n, elided[n], report, follow)
		}
		return true
	})

	// Interface boxing at assignments, call arguments, and returns:
	// storing a concrete value into an interface-typed slot allocates
	// (except untyped nil and values already of interface type).
	var results *types.Tuple
	if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok {
			results = sig.Results()
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if len(n.Lhs) != len(n.Rhs) {
					break
				}
				lt := pass.typeOf(n.Lhs[i])
				if boxes(lt, pass.typeOf(rhs), rhs) {
					report(rhs.Pos(), "interface boxing (allocates)")
				}
			}
		case *ast.ReturnStmt:
			if results == nil {
				break
			}
			for i, r := range n.Results {
				if i >= results.Len() || len(n.Results) != results.Len() {
					break
				}
				if boxes(results.At(i).Type(), pass.typeOf(r), r) {
					report(r.Pos(), "interface boxing at return (allocates)")
				}
			}
		case *ast.FuncLit:
			return false
		}
		return true
	})
}

// checkHotCall classifies one call on the hot path: allocating builtins
// and conversions are flagged (except a []byte→string conversion that is
// a map index's key, which mapKey says this one is); static package-local
// callees are handed to follow; dynamic calls are left alone. Returns
// whether Inspect should descend into the call's children.
func checkHotCall(pass *Pass, call *ast.CallExpr, mapKey bool, report func(token.Pos, string), follow func(*types.Func)) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
				report(call.Pos(), "make (allocates)")
				return true
			}
		case "new":
			if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
				report(call.Pos(), "new (allocates)")
				return true
			}
		case "append":
			if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
				report(call.Pos(), "append (can grow and allocate)")
				return true
			}
		}
	}

	// Conversions: string([]byte) and []byte(string) copy. The one
	// compiler-elided form is indexing a map with a string(b) key.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := pass.typeOf(call.Args[0])
		if isStringType(to) && isByteSlice(from) && !mapKey {
			report(call.Pos(), "[]byte→string conversion (copies)")
		}
		if isByteSlice(to) && isStringType(from) {
			report(call.Pos(), "string→[]byte conversion (copies)")
		}
		return true
	}

	if fn := pass.callee(call); fn != nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == pass.Pkg.Path() {
			follow(fn)
		}
		// Boxing at arguments: passing a concrete value where the
		// static callee takes an interface parameter (including each
		// element of a ...interface variadic tail).
		if sig, ok := fn.Type().(*types.Signature); ok {
			for i, arg := range call.Args {
				var pt types.Type
				switch {
				case sig.Variadic() && i >= sig.Params().Len()-1:
					if call.Ellipsis.IsValid() {
						continue // passing the slice through, no per-element boxing
					}
					sl, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice)
					if !ok {
						continue
					}
					pt = sl.Elem()
				case i < sig.Params().Len():
					pt = sig.Params().At(i).Type()
				default:
					continue
				}
				if boxes(pt, pass.typeOf(arg), arg) {
					report(arg.Pos(), "interface boxing at call argument (allocates)")
				}
			}
		}
	}
	return true
}

// boxes reports whether assigning a value of type from into a slot of
// type to requires an interface allocation: to is a non-empty-method
// interface, from is a concrete non-pointer-shaped... — conservatively:
// to is an interface, from is a concrete type, and the expression is not
// the untyped nil.
func boxes(to, from types.Type, expr ast.Expr) bool {
	if to == nil || from == nil {
		return false
	}
	// A type parameter's underlying type is its constraint, an interface,
	// but a generic function is instantiated over the concrete type:
	// passing a []byte to slices.Grow[S ~[]E] boxes nothing.
	if _, ok := types.Unalias(to).(*types.TypeParam); ok {
		return false
	}
	if _, ok := to.Underlying().(*types.Interface); !ok {
		return false
	}
	if _, ok := from.Underlying().(*types.Interface); ok {
		return false
	}
	if b, ok := from.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	// Pointers store directly in the interface word — no allocation.
	if _, ok := from.Underlying().(*types.Pointer); ok {
		return false
	}
	if id, ok := ast.Unparen(expr).(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	return true
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}
