// Package lint is the analyzer framework under cmd/wolveslint: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// surface (Analyzer, Pass, Diagnostic) plus a package loader built on
// `go list -export` and the standard library's gc export-data importer.
//
// The repo pins invariants that no compiler checks — the vfs I/O seam,
// engine.Code↔HTTP exhaustiveness, ctx threading, lock/unlock pairing,
// sync.Pool Get/Put pairing — and this framework is what machine-checks
// them offline, with nothing outside the Go standard library and the go
// toolchain itself. The types mirror go/analysis deliberately: an
// analyzer written against this package ports to the upstream
// multichecker by changing imports only.
//
// Suppression: a diagnostic is dropped when the line it lands on (or the
// line directly above it) carries a `//lint:allow <name>[,<name>...]
// <reason>` comment naming its analyzer. Run reports a directive that
// gives no reason, and one naming an analyzer that ran but suppressed
// nothing there, so annotations cannot outlive the code they excuse.
// Analyzers may also consume other `//lint:<verb>` directives via
// FileDirectives (the errcode analyzer's `//lint:exhaustive errcode`
// marker, for example).
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzer describes one invariant checker. It mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// annotations. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description shown by the driver.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

// Pass carries one package's syntax and type information to an
// analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a resolved diagnostic: position translated, suppressions
// applied, ready to print.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Directive is one //lint:<verb> comment: `//lint:allow vfsseam reason`
// parses as Verb "allow", Args ["vfsseam", "reason"].
type Directive struct {
	Line int
	Verb string
	Args []string
}

// FileDirectives extracts every //lint: directive of f. Directives must
// start the comment ("//lint:" exactly, no space) to count.
func FileDirectives(fset *token.FileSet, f *ast.File) []Directive {
	var out []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:")
			if !ok {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) == 0 {
				continue
			}
			out = append(out, Directive{
				Line: fset.Position(c.Pos()).Line,
				Verb: fields[0],
				Args: fields[1:],
			})
		}
	}
	return out
}

// allowKey is one analyzer named by one //lint:allow directive.
type allowKey struct {
	file string
	line int
	name string
}

// Run applies every analyzer to every package and returns the surviving
// findings sorted by position. It also reports, as analyzer "lint",
// every //lint:allow directive without a reason and every analyzer name
// in one that ran but suppressed nothing on the directive's line or the
// next. Analyzer errors (not diagnostics) abort the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	lintf := func(file string, line int, format string, args ...any) {
		findings = append(findings, Finding{Analyzer: "lint",
			Pos: token.Position{Filename: file, Line: line}, Message: fmt.Sprintf(format, args...)})
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, pkg := range pkgs {
		// used indexes the package's allow directives: the first argument
		// is a comma-separated analyzer list, the rest the reason. A name
		// turns true once it suppresses a finding.
		used := make(map[allowKey]bool)
		for _, f := range pkg.Files {
			file := pkg.Fset.Position(f.Pos()).Filename
			for _, d := range FileDirectives(pkg.Fset, f) {
				if d.Verb != "allow" {
					continue
				}
				if len(d.Args) < 2 {
					lintf(file, d.Line, "//lint:allow needs an analyzer name and a reason")
				}
				if len(d.Args) == 0 {
					continue
				}
				for _, name := range strings.Split(d.Args[0], ",") {
					used[allowKey{file, d.Line, strings.TrimSpace(name)}] = false
				}
			}
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			pass.Report = func(d Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				for _, line := range []int{pos.Line, pos.Line - 1} {
					k := allowKey{pos.Filename, line, a.Name}
					if _, ok := used[k]; ok {
						used[k] = true
						return
					}
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.PkgPath, a.Name, err)
			}
		}
		for k, ok := range used {
			if !ok && ran[k.name] {
				lintf(k.file, k.line, "stale //lint:allow %s: no %s finding on this line or the next", k.name, k.name)
			}
		}
	}
	slices.SortFunc(findings, func(a, b Finding) int {
		return cmp.Or(
			strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Analyzer, b.Analyzer),
			strings.Compare(a.Message, b.Message),
		)
	})
	return findings, nil
}

// NewTypesInfo allocates a fully-populated types.Info, so analyzers can
// rely on every map being present.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
