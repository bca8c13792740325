// Package floatconst guards the PR-6 kernel contract in internal/core: the
// batched model kernels carry no per-flow transcendentals beyond the single
// documented incomplete-gamma evaluation, and float comparisons in kernel
// code must not silently rely on exact equality.
//
// Outside the designated scalar-oracle files (the reference
// implementations the kernels are differential-tested against), the
// analyzer forbids:
//
//   - calls to math.Pow and math.Gamma — the kernels replace them with
//     cached coefficients, Horner polynomials, and cheap roots; a new call
//     is almost always an accidental per-flow transcendental;
//   - float ==/!= comparisons, except against an exact constant zero (the
//     conventional empty/sentinel guard) or the x != x NaN test.
//
// Justified exceptions are annotated in place:
//
//	//repro:transcendental-ok <why this call is off the per-flow path>
//	//repro:floateq-ok <why exact equality is intended>
package floatconst

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the kernel float-discipline checker.
var Analyzer = &framework.Analyzer{
	Name: "floatconst",
	Doc: "forbid math.Pow/math.Gamma and exact float equality in core " +
		"kernel files outside the scalar oracles",
	Suppressors: []string{"transcendental-ok", "floateq-ok"},
	Run:         run,
}

// OracleFiles are internal/core's scalar reference implementations: the
// slow, obviously-correct forms the batched kernels are differential-tested
// against. They are allowed transcendentals and exact comparisons; kernel
// files are not.
var OracleFiles = map[string]bool{
	"shot.go":   true, // scalar shot family: Rate/Cumulative closed forms and the real-b CrossCov integrand
	"specfn.go": true, // gammaLowerExpM1, the log-MGF special function the Chernoff kernel calls once per flow
}

var bannedMathFuncs = map[string]bool{
	"math.Pow":   true,
	"math.Gamma": true,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		name := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		if strings.HasSuffix(name, "_test.go") || OracleFiles[name] {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok && bannedMathFuncs[fn.FullName()] {
						pass.Reportf(n.Pos(), "%s in kernel file %s: kernels hoist transcendentals into cached coefficients; move this to an oracle file or annotate //repro:transcendental-ok with why it is off the per-flow path", fn.FullName(), name)
					}
				}
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if !isFloat(pass, n.X) && !isFloat(pass, n.Y) {
					return true
				}
				if isZeroConst(pass, n.X) || isZeroConst(pass, n.Y) {
					return true // exact-zero sentinel guards are well-defined
				}
				if n.Op == token.NEQ && types.ExprString(n.X) == types.ExprString(n.Y) {
					return true // x != x is the conventional NaN test
				}
				pass.Reportf(n.Pos(), "float %s comparison in kernel file %s: exact float equality is almost never intended; compare against a tolerance or annotate //repro:floateq-ok with why exactness holds", n.Op, name)
			}
			return true
		})
	}
	return nil
}

func isFloat(pass *framework.Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isZeroConst(pass *framework.Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}
