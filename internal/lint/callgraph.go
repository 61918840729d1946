package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
)

// The call-graph layer makes the analyzer interprocedural: it indexes
// every function declaration of the loaded module by its *types.Func
// object, resolves static call edges (package-level functions and
// methods on concrete receiver types) via go/types, and computes a
// bottom-up "may-allocate" lattice over that graph. A function's value
// is the first site allocSites (hotpath.go) finds in its body, so the
// lattice and the hotpath check share one rule set. Dynamic edges —
// calls through func values or interface methods — cannot be resolved
// statically and are treated conservatively as may-allocate; the one
// exemption is a local variable bound exactly once to a func literal in
// the same function, whose body is visible and analyzed in place.
//
// The hotpath check queries the lattice at every call site inside a
// //qa:hotpath function: a callee that is not provably allocation-free
// is a finding, with the reason chain ("calls f (f at a.go:9: calls g
// (g at b.go:4: make allocates))") attached so a three-deep allocation
// is diagnosable from the kernel's call site.

// Program is the module-wide view built by Run before the per-package
// checks execute: the cross-package function index and the memoized
// may-allocate results.
type Program struct {
	// decls maps a function object to its declaration site.
	decls map[*types.Func]*declSite

	// alloc memoizes the lattice: the reason the function may allocate,
	// or the empty string when it is provably allocation-free. A
	// function reads as allocation-free while its own entry is being
	// computed, so cycles resolve optimistically: a recursive function
	// is judged by its own body and its non-cyclic callees. That can
	// miss an allocation: when f calls g, g calls f and f allocates
	// after the call, asking for f first memoizes g as allocation-free.
	alloc map[*types.Func]string
}

type declSite struct {
	pkg *Package
	fn  *ast.FuncDecl
}

// NewProgram indexes the packages' function declarations.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		decls: map[*types.Func]*declSite{},
		alloc: map[*types.Func]string{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				prog.decls[obj] = &declSite{pkg: pkg, fn: fn}
			}
		}
	}
	return prog
}

// StaticCallee resolves the target of a call expression to a function
// object when the edge is static: a package-level function, a method
// called on a concrete (non-interface) receiver, or a qualified
// stdlib/module identifier. Dynamic targets — func values, interface
// methods — return nil.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	// Generic instantiations appear as index expressions: f[T](…).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return origin(fn)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			// Method (or method-value call): static only through a
			// concrete receiver; an interface receiver dispatches
			// dynamically.
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if types.IsInterface(recvType(fn)) {
				return nil
			}
			return origin(fn)
		}
		// Qualified identifier pkg.F.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return origin(fn)
		}
	}
	return nil
}

// origin maps an instantiated generic function back to its declaration
// object, where the body lives.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// allocFreePackages and allocFreeFuncs are the allocation-free
// allowlist: the external (no source in the module) functions the
// lattice trusts. math and math/bits are pure word-arithmetic packages
// with no allocating API. math/rand cannot be allowlisted wholesale —
// rand.New and rand.NewSource allocate — but the draw methods on an
// existing *rand.Rand are pure arithmetic over the source state
// (Uint64/Int63 read the generator, Intn/Int63n reduce a draw,
// ExpFloat64/NormFloat64 walk constant ziggurat tables). Functions are
// named as fnName renders them.
var (
	allocFreePackages = []string{"math", "math/bits"}
	allocFreeFuncs    = []string{
		"(*math/rand.Rand).Uint64",
		"(*math/rand.Rand).Int63",
		"(*math/rand.Rand).Int63n",
		"(*math/rand.Rand).Intn",
		"(*math/rand.Rand).Int31n",
		"(*math/rand.Rand).Float64",
		"(*math/rand.Rand).ExpFloat64",
		"(*math/rand.Rand).NormFloat64",
	}
)

// MayAllocate reports whether fn can allocate on some path, with a
// human-readable reason chain for the first allocation site found.
// Allocation-free means: allocSites finds nothing in the body (lines
// annotated //qa:allow hotpath are trusted as deliberate cold paths),
// which covers every static callee transitively. An external function
// is allocation-free only on the allowlist, and a declaration without a
// Go body never is.
func (prog *Program) MayAllocate(fn *types.Func) (bool, string) {
	reason, ok := prog.alloc[fn]
	if !ok {
		prog.alloc[fn] = "" // optimistic on cycles; see Program.alloc
		reason = prog.allocReason(fn)
		prog.alloc[fn] = reason
	}
	return reason != "", reason
}

// allocReason computes fn's lattice value: the reason it may allocate,
// or "".
func (prog *Program) allocReason(fn *types.Func) string {
	site, ok := prog.decls[fn]
	switch {
	case !ok && fn.Pkg() != nil &&
		(slices.Contains(allocFreePackages, fn.Pkg().Path()) || slices.Contains(allocFreeFuncs, fnName(fn))):
		return ""
	case !ok:
		return fmt.Sprintf("external function %s is not on the allocation-free allowlist", fnName(fn))
	case site.fn.Body == nil:
		return fmt.Sprintf("%s has no Go body (assembly or linkname)", fnName(fn))
	}
	reason := ""
	prog.allocSites(site.pkg, site.fn, func(s allocSite) bool {
		p := site.pkg.Fset.Position(s.pos)
		reason = fmt.Sprintf("%s at %s:%d: %s", fnName(fn), filepath.Base(p.Filename), p.Line, s.reason)
		return false
	})
	return reason
}

// localFuncLitBinding resolves fun to the single func literal bound to
// a local variable of the enclosing function, or nil. A variable
// assigned exactly once, from a literal, is a static indirection: the
// call target is visible in place. Any reassignment or non-literal
// source makes the target dynamic.
func localFuncLitBinding(info *types.Info, enclosing *ast.FuncDecl, fun ast.Expr) *ast.FuncLit {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || enclosing == nil || enclosing.Body == nil {
		return nil
	}
	if v.Pos() < enclosing.Pos() || v.Pos() > enclosing.End() {
		return nil // not a local of this function
	}
	var lit *ast.FuncLit
	bindings := 0
	ast.Inspect(enclosing.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[lid]
			if obj == nil {
				obj = info.Uses[lid]
			}
			if obj != v {
				continue
			}
			bindings++
			if i < len(as.Rhs) {
				if l, ok := ast.Unparen(as.Rhs[i]).(*ast.FuncLit); ok && bindings == 1 {
					lit = l
				}
			}
		}
		return true
	})
	if bindings == 1 {
		return lit
	}
	return nil
}

// fnName renders a function object as pkgpath.Name or (recv).Name.
func fnName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return fmt.Sprintf("(%s).%s", sig.Recv().Type().String(), fn.Name())
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}
