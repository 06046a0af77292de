package pia

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
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
	eachSourceFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		if rawAllowed(path) {
			return
		}
		corePkg := importName(f, "repro/internal/core")
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
	})
}

// varintReaders are the encoding/binary functions that read a varint.
// Every peer byte is read through wire.Fields, which refuses a varint
// in more bytes than it needs and checks every length against a cap
// and what is left, so only internal/wire calls them outside tests.
var varintReaders = []string{"Uvarint", "Varint", "ReadUvarint"}

// TestOneLayoutReader parses every non-test Go file in the module and
// fails on a call to one of varintReaders outside internal/wire.
func TestOneLayoutReader(t *testing.T) {
	eachSourceFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		binaryPkg := importName(f, "encoding/binary")
		if binaryPkg == "" || strings.HasPrefix(path, "internal/wire/") {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, _ := sel.X.(*ast.Ident); x != nil && x.Name == binaryPkg && slices.Contains(varintReaders, sel.Sel.Name) {
				t.Errorf("%s: binary.%s reads a layout by hand; read it with wire.Fields",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	})
}

// gobImporters are the non-test files that may import encoding/gob:
// wire's Send, Recv and DecodeGob and signal's registrations, which
// only the benchmark's gob probe uses. Behaviour state is a closed
// layout read with wire.Fields like every other.
var gobImporters = []string{"internal/wire/wire.go", "internal/signal/signal.go"}

// TestGobStaysInItsProbe parses every non-test Go file in the module
// and fails on an import of encoding/gob outside gobImporters.
func TestGobStaysInItsProbe(t *testing.T) {
	eachSourceFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		if importName(f, "encoding/gob") != "" && !slices.Contains(gobImporters, path) {
			t.Errorf("%s imports encoding/gob; lay its bytes out for wire.Fields (gob is kept only for the benchmark's probe, which ROADMAP item 16 deletes)", path)
		}
	})
}

// TestOneObserverSpine parses every non-test Go file in the module and
// fails on an assignment to a func field of core.Subsystem: a watcher
// of a subsystem's steps, publications, departures, stalls, throttle
// collapses or drives subscribes with Subsystem.Observe, which keeps
// every earlier observer, where an assigned hook silences the one it
// replaced. The benchmark's fan digest in bench/workloads.go is the one
// exception, until ROADMAP item 1 moves it onto Observe.
func TestOneObserverSpine(t *testing.T) {
	var hooks []string
	typ := reflect.TypeOf(core.Subsystem{})
	for i := range typ.NumField() {
		if f := typ.Field(i); f.IsExported() && f.Type.Kind() == reflect.Func {
			hooks = append(hooks, f.Name)
		}
	}
	eachSourceFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || !slices.Contains(hooks, sel.Sel.Name) || (path == "bench/workloads.go" && sel.Sel.Name == "OnDrive") {
					continue
				}
				t.Errorf("%s: assigns the subsystem hook %s; subscribe with Subsystem.Observe (only bench/workloads.go sets OnDrive, until ROADMAP item 1 moves the fan digest onto Observe)",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	})
}

// importName is the name f refers to the package imported from path
// by, or "" when f does not import it.
func importName(f *ast.File, path string) string {
	for _, im := range f.Imports {
		if strings.Trim(im.Path.Value, `"`) != path {
			continue
		}
		if im.Name != nil {
			return im.Name.Name
		}
		return path[strings.LastIndex(path, "/")+1:]
	}
	return ""
}

// eachSourceFile parses every non-test Go file of the module, outside
// hidden and testdata directories, and hands it to visit with its
// slash-separated path.
func eachSourceFile(t *testing.T, visit func(fset *token.FileSet, path string, f *ast.File)) {
	t.Helper()
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(fset, path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
