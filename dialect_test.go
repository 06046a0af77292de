package pia

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// rawConstructors are the core methods that build a system piece by
// piece. A system is described once, through SystemBuilder, so only the
// kernel that defines them (internal/core) and the description the
// builder fills (internal/design), which realizes itself on subsystems
// for every build and for a component migrating into a mesh member,
// call them — and core.NewSubsystem — outside tests.
var rawConstructors = []string{"NewComponent", "NewNet", "NewNets"}

// rawAllowed reports whether the non-test file at path may build a
// system with raw core calls.
func rawAllowed(path string) bool {
	return strings.HasPrefix(path, "internal/core/") || strings.HasPrefix(path, "internal/design/")
}

// TestOneSystemDialect parses every non-test Go file in the module and
// fails on a raw construction call outside rawAllowed: a
// core.NewSubsystem, or a selector naming one of rawConstructors.
func TestOneSystemDialect(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		path = filepath.ToSlash(path)
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || rawAllowed(path) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		corePkg := ""
		for _, im := range f.Imports {
			if strings.Trim(im.Path.Value, `"`) == "repro/internal/core" {
				corePkg = "core"
				if im.Name != nil {
					corePkg = im.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, _ := sel.X.(*ast.Ident)
			switch {
			case x != nil && corePkg != "" && x.Name == corePkg && sel.Sel.Name == "NewSubsystem":
			case slices.Contains(rawConstructors, sel.Sel.Name):
			default:
				return true
			}
			t.Errorf("%s: %s builds a system with raw core calls; describe it with SystemBuilder and build it with BuildLocal, BuildOnNodes or BuildSubsystem",
				fset.Position(sel.Pos()), sel.Sel.Name)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
