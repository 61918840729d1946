package lint

import (
	"go/ast"
	"go/types"
)

// The hotpath check statically pins the 0 allocs/op claims of the CHP
// column-major gate and measurement kernels (DESIGN.md, "Tableau memory
// layout") and the framesim word-parallel propagate/decode loops
// (DESIGN.md, "Frame-engine microbenchmarks"). Inside
// a function whose doc comment carries //qa:hotpath it forbids every
// construct that can allocate per call:
//
//   - append, make and new
//   - composite literals (slice, map and struct literals)
//   - conversions of non-constant values to interface types, explicit
//     or implicit at call arguments and assignments (fmt helpers are
//     the classic offender)
//   - string concatenation (+ / += on strings)
//   - closures capturing variables (a capturing func literal allocates
//     its environment; capture-free literals are static and allowed)
//
// panic with a constant argument stays allowed: the conversion is
// materialized by the compiler as static data and the call is the loud
// failure path the kernels are required to keep.
//
// The check is interprocedural (PR 9): every call inside a hot function
// is resolved through the module call graph (callgraph.go) and the
// callee must be provably allocation-free — its own body clean under
// the same rules, transitively through its static callees. External
// callees are trusted only on the allocation-free stdlib allowlist
// (math, math/bits); calls through func values or interface methods
// cannot be resolved and are conservatively treated as may-allocate,
// except a local variable bound exactly once to a func literal in the
// same function (the body is visible and scanned in place).
//
// A deliberate exception (e.g. a cold sub-path inside a hot function)
// is annotated //qa:allow hotpath on the offending line.
const CheckHotpath = "hotpath"

var _ = register(&Check{
	Name: CheckHotpath,
	Doc:  "//qa:hotpath functions must be allocation-free: no append/make/new, composite literals, interface conversions, string concat, or capturing closures",
	Run:  runHotpath,
})

func runHotpath(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !p.Pkg.Notes.Hotpath(p.Pkg.Fset, fn) {
				continue
			}
			checkHotFunc(p, fn)
		}
	}
}

func checkHotFunc(p *Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(p, name, fn, n)
		case *ast.CompositeLit:
			p.Reportf(CheckHotpath, n.Pos(),
				"%s is //qa:hotpath: composite literal may allocate", name)
		case *ast.BinaryExpr:
			if n.Op.String() == "+" && isStringType(p.TypeOf(n.X)) && !isConstExpr(p, n) {
				p.Reportf(CheckHotpath, n.Pos(),
					"%s is //qa:hotpath: string concatenation allocates", name)
			}
		case *ast.AssignStmt:
			checkHotAssign(p, name, n)
		case *ast.FuncLit:
			reportCaptures(p, name, fn, n)
			// Keep walking inside: the closure body runs on the hot path
			// too when invoked from it.
		case *ast.GoStmt, *ast.DeferStmt:
			p.Reportf(CheckHotpath, n.Pos(),
				"%s is //qa:hotpath: go/defer statements allocate and schedule", name)
		}
		return true
	})
}

// checkHotCall flags allocating builtins, allocating conversions,
// implicit interface conversions at call arguments, transitive
// allocations in static callees, and unresolvable dynamic calls.
func checkHotCall(p *Pass, name string, enclosing *ast.FuncDecl, call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := p.Pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append", "make", "new":
				p.Reportf(CheckHotpath, call.Pos(),
					"%s is //qa:hotpath: %s allocates", name, b.Name())
			}
			return // other builtins (len, cap, panic(const), …) are fine
		}
	}
	// Explicit conversion T(x): interface boxing and string<->[]byte.
	if tv, ok := p.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 || isConstExpr(p, call.Args[0]) {
			return
		}
		if types.IsInterface(tv.Type) {
			p.Reportf(CheckHotpath, call.Pos(),
				"%s is //qa:hotpath: conversion to interface %s allocates", name, tv.Type.String())
		} else if stringBytesConversion(tv.Type, p.TypeOf(call.Args[0])) {
			p.Reportf(CheckHotpath, call.Pos(),
				"%s is //qa:hotpath: conversion between string and byte/rune slice allocates", name)
		}
		return
	}
	// Interprocedural edge: the callee must be provably allocation-free
	// through the module call graph.
	checkHotCallee(p, name, enclosing, call)
	// Implicit conversions of arguments to interface parameters.
	sigT := p.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := p.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isConstExpr(p, arg) {
			continue
		}
		p.Reportf(CheckHotpath, arg.Pos(),
			"%s is //qa:hotpath: argument converts %s to interface %s (allocates)", name, at.String(), pt.String())
	}
}

// checkHotCallee resolves the call target through the call graph and
// reports callees that are not provably allocation-free: static callees
// whose may-allocate lattice value is true (with the transitive reason
// chain) and dynamic calls that cannot be resolved at all.
func checkHotCallee(p *Pass, name string, enclosing *ast.FuncDecl, call *ast.CallExpr) {
	if p.Prog == nil {
		return
	}
	if callee := StaticCallee(p.Pkg.Info, call); callee != nil {
		if may, why := p.Prog.MayAllocate(callee); may {
			p.Reportf(CheckHotpath, call.Pos(),
				"%s is //qa:hotpath: calls %s, which is not provably allocation-free: %s", name, fnName(callee), why)
		}
		return
	}
	if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return // directly-invoked literal: body walked by this very pass
	}
	if localFuncLitBinding(p.Pkg.Info, enclosing, call.Fun) != nil {
		return // f := func(){…}; f(): static indirection, body walked
	}
	p.Reportf(CheckHotpath, call.Pos(),
		"%s is //qa:hotpath: dynamic call (func value or interface method) is not provably allocation-free", name)
}

// checkHotAssign flags string += and assignments that box a concrete
// value into an interface-typed location.
func checkHotAssign(p *Pass, name string, s *ast.AssignStmt) {
	if s.Tok.String() == "+=" && len(s.Lhs) == 1 && isStringType(p.TypeOf(s.Lhs[0])) {
		p.Reportf(CheckHotpath, s.Pos(),
			"%s is //qa:hotpath: string concatenation allocates", name)
		return
	}
	if s.Tok.String() != "=" {
		return
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		lt, rt := p.TypeOf(lhs), p.TypeOf(s.Rhs[i])
		if lt == nil || rt == nil {
			continue
		}
		if types.IsInterface(lt) && !types.IsInterface(rt) && !isConstExpr(p, s.Rhs[i]) {
			p.Reportf(CheckHotpath, s.Rhs[i].Pos(),
				"%s is //qa:hotpath: assignment converts %s to interface (allocates)", name, rt.String())
		}
	}
}

// reportCaptures flags the variables a func literal captures from the
// enclosing hot function.
func reportCaptures(p *Pass, name string, enclosing *ast.FuncDecl, lit *ast.FuncLit) {
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Pkg.Info.Uses[id].(*types.Var)
		if !ok || seen[v] {
			return true
		}
		// Captured: declared inside the enclosing function but outside
		// the literal, and not package-level.
		if v.Pos() > enclosing.Pos() && v.Pos() < enclosing.End() &&
			(v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			seen[v] = true
			p.Reportf(CheckHotpath, lit.Pos(),
				"%s is //qa:hotpath: closure captures %s (allocates its environment)", name, v.Name())
		}
		return true
	})
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConstExpr reports whether the expression has a compile-time
// constant value (constant-to-interface conversions are materialized as
// static data, not heap allocations).
func isConstExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[e]
	return ok && tv.Value != nil
}
