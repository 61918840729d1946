package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The floateq check flags == and != between floating-point operands.
// The probability and LER pipeline (channel parameters, Eq. 5.1 rates,
// t-test statistics, pseudo-threshold interpolation) must compare with
// tolerances: exact float equality silently turns into "never equal"
// after any rounding step, and "accidentally equal" at reconstructed
// values — both have bitten LER aggregation code in the wild.
//
// Comparisons where both operands are compile-time constants are fine
// (the compiler folds them exactly). Deliberate exact comparisons —
// sentinel values, checking a stored copy is unchanged, IEEE edge-case
// handling like x != x — are annotated //qa:allow float-eq on the line.
const CheckFloatEq = "float-eq"

var _ = register(&Check{
	Name: CheckFloatEq,
	Doc:  "==/!= on floating-point operands; compare with a tolerance or annotate //qa:allow float-eq",
	Run:  runFloatEq,
})

func runFloatEq(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(p.TypeOf(be.X)) && !isFloat(p.TypeOf(be.Y)) {
				return true
			}
			if isConstExpr(p.Pkg.Info, be.X) && isConstExpr(p.Pkg.Info, be.Y) {
				return true
			}
			p.Reportf(CheckFloatEq, be.OpPos,
				"floating-point %s comparison: use a tolerance, or mark a deliberate exact comparison with %sallow float-eq",
				be.Op, AnnotationPrefix)
			return true
		})
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
