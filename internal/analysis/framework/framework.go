// Package framework is a dependency-free miniature of the
// golang.org/x/tools/go/analysis API: analyzers receive a type-checked
// package (a Pass) and report position-anchored diagnostics.
//
// The real x/tools module is deliberately not imported — the repo builds in
// hermetic environments with no module proxy — but the surface mirrors
// go/analysis closely enough that migrating an analyzer to the upstream
// framework is a mechanical rename. Two pieces the upstream splits across
// packages live together here:
//
//   - the Analyzer/Pass/Diagnostic core (this file),
//   - a package loader driving `go list -export` + the stdlib gc importer
//     (load.go), standing in for go/packages.
//
// Suppression is comment-directive based: a `//repro:<name> <reason>`
// comment suppresses, for analyzers that register <name> in Suppressors,
// every diagnostic on the directive's own line — or on the next line when
// the comment stands alone. Directives must carry a non-empty reason; the
// framework itself reports bare or unknown directives.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Run inspects a single package and
// reports findings through pass.Report; it must not retain the Pass.
type Analyzer struct {
	Name string // short lower-case identifier, printed with each finding
	Doc  string // one-paragraph description of the invariant

	// Suppressors lists the //repro: directive names (sans prefix) that
	// silence this analyzer's diagnostics on annotated lines.
	Suppressors []string

	Run func(*Pass) error
}

// Scoped pairs an analyzer with the import paths it governs.
type Scoped struct {
	Analyzer *Analyzer
	Match    func(importPath string) bool
}

// Pass carries one type-checked package through an Analyzer.Run.
type Pass struct {
	Fset   *token.FileSet
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	Src    map[string][]byte // filename (as in Fset positions) -> source
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: p.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding. Analyzer is filled by the runner.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// DirectivePrefix introduces every annotation comment the suite understands.
const DirectivePrefix = "//repro:"

// KnownDirectives maps each directive name to whether it requires a
// justification after the name. `hotpath` marks a function declaration for
// the zero-allocation check; the *-ok directives are line suppressions.
var KnownDirectives = map[string]bool{
	"hotpath":           false, // marks a function; reason optional
	"nondeterminism-ok": true,  // suppresses determinism findings
	"alloc-ok":          true,  // suppresses hotpath allocation findings
	"transcendental-ok": true,  // suppresses floatconst math.Pow/Gamma findings
	"floateq-ok":        true,  // suppresses floatconst float ==/!= findings
}

// Directive is one parsed //repro: comment.
type Directive struct {
	Name    string
	Reason  string
	Pos     token.Position
	OwnLine bool // nothing but whitespace precedes the comment on its line
}

// Lines returns the source lines this directive governs: its own line, or
// the following line when the comment stands alone.
func (d Directive) Lines() []int {
	if d.OwnLine {
		return []int{d.Pos.Line, d.Pos.Line + 1}
	}
	return []int{d.Pos.Line}
}

// ParseDirectives extracts every //repro: comment of file. src must be the
// file's source bytes (used to decide whether a comment stands alone on its
// line); a nil src degrades gracefully to treating all comments as inline.
func ParseDirectives(fset *token.FileSet, file *ast.File, src []byte) []Directive {
	var out []Directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, DirectivePrefix) {
				continue
			}
			body := strings.TrimPrefix(c.Text, DirectivePrefix)
			name, reason, _ := strings.Cut(body, " ")
			pos := fset.Position(c.Pos())
			own := false
			if src != nil && pos.Offset <= len(src) {
				own = true
				for i := pos.Offset - 1; i >= 0 && src[i] != '\n'; i-- {
					if src[i] != ' ' && src[i] != '\t' {
						own = false
						break
					}
				}
			}
			out = append(out, Directive{
				Name:    name,
				Reason:  strings.TrimSpace(reason),
				Pos:     pos,
				OwnLine: own,
			})
		}
	}
	return out
}

// HasDirective reports whether a function declaration's doc comment carries
// the named directive (e.g. //repro:hotpath).
func HasDirective(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, DirectivePrefix) {
			n, _, _ := strings.Cut(strings.TrimPrefix(c.Text, DirectivePrefix), " ")
			if n == name {
				return true
			}
		}
	}
	return false
}
