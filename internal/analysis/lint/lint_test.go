package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"testing"
)

const allowSrc = `package p

func f() {
	bad() //lint:allow fake used on the same line
	//lint:allow fake used on the line above
	bad()
	bad() //lint:allow fake
	ok() //lint:allow fake stale: nothing to suppress here
	ok() //lint:allow other names an analyzer that may not run
	bad() //lint:allow fake,other lists two analyzers
	ok()
	bad()
	ok() //lint:allow
}

func bad() {}
func ok()  {}
`

// callsTo returns an analyzer that reports every call to fn.
func callsTo(name, fn string) *Analyzer {
	return &Analyzer{Name: name, Run: func(pass *Pass) (any, error) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == fn {
						pass.Reportf(call.Pos(), "call to %s", fn)
					}
				}
				return true
			})
		}
		return nil, nil
	}}
}

// TestRunAllowDirectives pins the driver's //lint:allow handling:
// suppression on the same line and the line above, a finding for a
// directive without a reason, and a finding for a directive naming an
// analyzer that ran but suppressed nothing — skipped for analyzers that
// did not run.
func TestRunAllowDirectives(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", allowSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{PkgPath: "p", Fset: fset, Files: []*ast.File{f}, Types: types.NewPackage("p", "p"), TypesInfo: NewTypesInfo()}

	type line struct {
		Line     int
		Analyzer string
		Message  string
	}
	run := func(analyzers ...*Analyzer) []line {
		t.Helper()
		findings, err := Run([]*Package{pkg}, analyzers)
		if err != nil {
			t.Fatal(err)
		}
		var out []line
		for _, f := range findings {
			out = append(out, line{f.Pos.Line, f.Analyzer, f.Message})
		}
		return out
	}
	const reasonless = "//lint:allow needs an analyzer name and a reason"

	got := run(callsTo("fake", "bad"))
	want := []line{
		{7, "lint", reasonless},
		{8, "lint", "stale //lint:allow fake: no fake finding on this line or the next"},
		{12, "fake", "call to bad"},
		{13, "lint", reasonless},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fake only:\n got %v\nwant %v", got, want)
	}

	// Once "other" runs too, its two unused names are stale as well.
	got = run(callsTo("fake", "bad"), callsTo("other", "none"))
	want = []line{
		{7, "lint", reasonless},
		{8, "lint", "stale //lint:allow fake: no fake finding on this line or the next"},
		{9, "lint", "stale //lint:allow other: no other finding on this line or the next"},
		{10, "lint", "stale //lint:allow other: no other finding on this line or the next"},
		{12, "fake", "call to bad"},
		{13, "lint", reasonless},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fake and other:\n got %v\nwant %v", got, want)
	}
}
