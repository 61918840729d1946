package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
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
//   - string concatenation (+ / += on strings) and string <-> byte or
//     rune slice conversions
//   - closures capturing variables (a capturing func literal allocates
//     its environment; capture-free literals are static and allowed)
//   - go and defer statements
//
// panic with a constant argument stays allowed: the conversion is
// materialized by the compiler as static data and the call is the loud
// failure path the kernels are required to keep.
//
// The check is interprocedural: every call inside a hot function is
// resolved through the module call graph (callgraph.go) and the callee
// must be provably allocation-free — its own body clean under the same
// rules, transitively through its static callees. allocSites is the one
// rule set: the hot body and every callee body are walked by it, so a
// rule binds a kernel and its helpers alike. External callees are
// trusted only on the allocation-free allowlist (allocFreePackages,
// allocFreeFuncs); calls through func values or interface methods
// cannot be resolved and are conservatively treated as may-allocate,
// except a local variable bound exactly once to a func literal in the
// same function (the body is visible and walked in place).
//
// A deliberate exception (e.g. a cold sub-path inside a hot function)
// is annotated //qa:allow hotpath on the offending line; the walk skips
// it in hot functions and callees alike.
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
			if !ok || fn.Body == nil || !p.Pkg.Notes.Hotpath(p.Pkg.Fset, fn) {
				continue
			}
			p.Prog.allocSites(p.Pkg, fn, func(s allocSite) bool {
				p.Reportf(CheckHotpath, s.pos, "%s is //qa:hotpath: %s", fn.Name.Name, s.reason)
				return true
			})
		}
	}
}

// allocSite is one construct that may allocate: where, and why.
type allocSite struct {
	pos    token.Pos
	reason string
}

// siteWalk is the state of one allocSites walk.
type siteWalk struct {
	prog  *Program
	pkg   *Package
	fn    *ast.FuncDecl
	yield func(allocSite) bool
	stop  bool
}

// allocSites is the allocation rule set. It calls yield with every
// construct of fn's body that may allocate, in source order, until
// yield returns false; sites on lines annotated //qa:allow hotpath are
// skipped. Static callees are judged through the memoized MayAllocate,
// which walks their bodies with this same function.
func (prog *Program) allocSites(pkg *Package, fn *ast.FuncDecl, yield func(allocSite) bool) {
	w := &siteWalk{prog: prog, pkg: pkg, fn: fn, yield: yield}
	info := pkg.Info
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if w.stop {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			w.call(n)
		case *ast.CompositeLit:
			w.emit(n.Pos(), "composite literal may allocate")
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n.X)) && !isConstExpr(info, n) {
				w.emit(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			w.assign(n)
		case *ast.FuncLit:
			for _, v := range captures(info, fn, n) {
				w.emit(n.Pos(), "closure captures %s (allocates its environment)", v.Name())
			}
			// Keep walking inside: the closure body runs on the same
			// path when invoked from it.
		case *ast.GoStmt, *ast.DeferStmt:
			w.emit(n.Pos(), "go/defer statements allocate and schedule")
		}
		return !w.stop
	})
}

// skip reports whether the walk has stopped or pos is on an allowed
// line.
func (w *siteWalk) skip(pos token.Pos) bool {
	return w.stop || w.pkg.Notes.Allowed(CheckHotpath, w.pkg.Fset.Position(pos))
}

// emit yields a site at pos unless skip says otherwise, and stops the
// walk when yield asks to.
func (w *siteWalk) emit(pos token.Pos, format string, args ...any) {
	if !w.skip(pos) {
		w.stop = !w.yield(allocSite{pos, fmt.Sprintf(format, args...)})
	}
}

// call judges one call: allocating builtins, allocating conversions, a
// static callee that is not provably allocation-free, an unresolvable
// dynamic call, and arguments boxed into interface parameters.
func (w *siteWalk) call(call *ast.CallExpr) {
	info := w.pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append", "make", "new":
				w.emit(call.Pos(), "%s allocates", b.Name())
			}
			return // other builtins (len, cap, copy, panic(const), …) are fine
		}
	}
	// Explicit conversion T(x): interface boxing and string<->[]byte.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 || isConstExpr(info, call.Args[0]) {
			return
		}
		if types.IsInterface(tv.Type) {
			w.emit(call.Pos(), "conversion to interface %s allocates", tv.Type.String())
		} else if stringBytesConversion(tv.Type, info.TypeOf(call.Args[0])) {
			w.emit(call.Pos(), "conversion between string and byte/rune slice allocates")
		}
		return
	}
	if callee := StaticCallee(info, call); callee != nil {
		if !w.skip(call.Pos()) {
			if may, why := w.prog.MayAllocate(callee); may {
				w.emit(call.Pos(), "calls %s (%s)", fnName(callee), why)
			}
		}
	} else if _, lit := ast.Unparen(call.Fun).(*ast.FuncLit); !lit && localFuncLitBinding(info, w.fn, call.Fun) == nil {
		// A directly invoked literal, or a local bound once to one, is
		// static: its body is walked in place.
		w.emit(call.Pos(), "dynamic call (func value or interface method) is not provably allocation-free")
	}
	// Implicit conversions of arguments to interface parameters.
	sigT := info.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		// The parameter arg converts to: the variadic element type,
		// unless f(xs...) passes the slice itself.
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1 && !call.Ellipsis.IsValid():
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		at := info.TypeOf(arg)
		if pt == nil || !types.IsInterface(pt) || at == nil || types.IsInterface(at) || isConstExpr(info, arg) {
			continue
		}
		w.emit(arg.Pos(), "argument converts %s to interface %s (allocates)", at.String(), pt.String())
	}
}

// assign judges string += and assignments that box a concrete value
// into an interface-typed location.
func (w *siteWalk) assign(s *ast.AssignStmt) {
	info := w.pkg.Info
	if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 && isStringType(info.TypeOf(s.Lhs[0])) {
		w.emit(s.Pos(), "string concatenation allocates")
		return
	}
	if s.Tok != token.ASSIGN {
		return
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		lt, rt := info.TypeOf(lhs), info.TypeOf(s.Rhs[i])
		if lt == nil || rt == nil {
			continue
		}
		if types.IsInterface(lt) && !types.IsInterface(rt) && !isConstExpr(info, s.Rhs[i]) {
			w.emit(s.Rhs[i].Pos(), "assignment converts %s to interface (allocates)", rt.String())
		}
	}
}

// captures lists the variables of the enclosing function that a func
// literal captures, in order of first use (a capturing literal allocates
// its environment; capture-free literals are static code).
func captures(info *types.Info, enclosing *ast.FuncDecl, lit *ast.FuncLit) []*types.Var {
	var vars []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		// Captured: declared inside the enclosing function but outside
		// the literal, and not package-level.
		if ok && !slices.Contains(vars, v) && v.Pos() > enclosing.Pos() && v.Pos() < enclosing.End() &&
			(v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			vars = append(vars, v)
		}
		return true
	})
	return vars
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// stringBytesConversion reports string <-> []byte/[]rune pairs, which
// copy their operand into a fresh allocation.
func stringBytesConversion(dst, src types.Type) bool {
	return (isStringType(dst) && isByteRuneSlice(src)) || (isByteRuneSlice(dst) && isStringType(src))
}

func isByteRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isConstExpr reports whether the expression has a compile-time
// constant value (constant-to-interface conversions are materialized as
// static data, not heap allocations).
func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
