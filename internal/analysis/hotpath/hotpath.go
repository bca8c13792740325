// Package hotpath enforces the zero-allocation contract of functions
// annotated //repro:hotpath — the per-packet and per-flow faces
// (Assembler.AddBlock, Binner.AddBlock, the kernel evaluation loops, the
// batched sampler faces, the player's fill loop and bucket sort) whose
// steady-state allocation counts the benchmarks pin at zero.
//
// The check has two halves:
//
//  1. A static AST pass (this analyzer) flagging constructs that always or
//     implicitly allocate inside an annotated function: closure literals,
//     make/new, string concatenation and string<->[]byte conversions,
//     implicit interface conversions (boxing) at call arguments, returns
//     and assignments, variadic calls (the argument slice), and go
//     statements.
//
//  2. An escape-analysis cross-check (escape.go, run by `repolint -escape`
//     and scripts/lint.sh) that parses `go build -gcflags=-m` output and
//     flags any `escapes to heap`/`moved to heap` diagnostic landing inside
//     an annotated function — catching what the AST cannot see.
//
// A cold path inside a hot function (an error return that fires at most
// once per stream) is annotated on its line:
//
//	//repro:alloc-ok <why this allocation cannot recur in steady state>
package hotpath

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the static half of the hot-path allocation checker.
var Analyzer = &framework.Analyzer{
	Name:        "hotpath",
	Doc:         "functions annotated //repro:hotpath must not allocate",
	Suppressors: []string{"alloc-ok"},
	Run:         run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !framework.HasDirective(fn, "hotpath") {
				continue
			}
			checkBody(pass, fn)
		}
	}
	return nil
}

func checkBody(pass *framework.Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal in hotpath function %s allocates", name)
			return false // the closure body runs under its own budget
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in hotpath function %s allocates a goroutine per call", name)
		case *ast.CallExpr:
			checkCall(pass, name, n)
		case *ast.BinaryExpr:
			if n.Op.String() == "+" && isString(pass, n.X) {
				pass.Reportf(n.Pos(), "string concatenation in hotpath function %s allocates", name)
			}
		}
		return true
	})
}

func checkCall(pass *framework.Pass, name string, call *ast.CallExpr) {
	// Conversions: string <-> []byte/[]rune allocate; conversions to an
	// interface type box.
	if len(call.Args) == 1 {
		if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
			to := tv.Type
			if from, ok := pass.Info.Types[call.Args[0]]; ok {
				if convAllocates(from.Type, to) {
					pass.Reportf(call.Pos(), "conversion %s -> %s in hotpath function %s allocates",
						types.TypeString(from.Type, types.RelativeTo(pass.Pkg)),
						types.TypeString(to, types.RelativeTo(pass.Pkg)), name)
				}
				if types.IsInterface(to.Underlying()) && !types.IsInterface(from.Type.Underlying()) {
					pass.Reportf(call.Pos(), "interface conversion in hotpath function %s boxes its operand", name)
				}
			}
			return
		}
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				pass.Reportf(call.Pos(), "%s in hotpath function %s allocates; hoist the buffer into a reused struct field or pool", b.Name(), name)
			}
			return
		}
	}
	// Ordinary calls: implicit boxing at interface-typed parameters, and
	// the hidden slice of a variadic call.
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice: no new boxing here
			}
			pt = params.At(np - 1).Type().(*types.Slice).Elem()
			if i == np-1 {
				pass.Reportf(call.Pos(), "variadic call in hotpath function %s allocates the argument slice", name)
			}
		case i < np:
			pt = params.At(i).Type()
		default:
			continue
		}
		at, ok := pass.Info.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if at.IsNil() {
			continue
		}
		if types.IsInterface(pt.Underlying()) && !types.IsInterface(at.Type.Underlying()) {
			pass.Reportf(arg.Pos(), "argument boxed into interface parameter in hotpath function %s", name)
		}
	}
}

// callSignature resolves the signature of an ordinary (non-builtin,
// non-conversion) call.
func callSignature(pass *framework.Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func isString(pass *framework.Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// convAllocates reports whether a conversion between from and to copies
// into fresh backing storage (string <-> []byte / []rune).
func convAllocates(from, to types.Type) bool {
	return (isStringType(from) && isByteOrRuneSlice(to)) ||
		(isByteOrRuneSlice(from) && isStringType(to))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}
