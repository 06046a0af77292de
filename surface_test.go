package pia

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow names the exported identifiers that no program outside
// their package calls but that stay exported: a mechanism of the paper,
// reached from an Example in example_test.go through this package, or a
// method a standard interface calls. Each entry says which. A name of
// this package is keyed "pia.Name"; one an Example is named after must
// stay, because go vet checks Example names.
var surfaceAllow = map[string]string{
	"pia.Engine":                   "§2.1.3: ExampleEngine_Slider",
	"pia.SendMessage":              "§2.1.3: a message at word or packet level, ExampleSendMessage",
	"pia.ReceiveMessage":           "§2.1.3: the receiver assembles it at any level, ExampleSendMessage",
	"pia.NewAssembler":             "§2.1.3: ExampleSendMessage",
	"pia.LevelPacket":              "§2.1.3: ExampleSendMessage",
	"pia.DefaultProtoConfig":       "§2.1.3: the paper's word and packet costs, ExampleSendMessage",
	"pia.SystemBuilder.SetChannel": "§2.2.2–2.2.3: a channel policy per subsystem pair, ExampleSystemBuilder_SetChannel",
	"pia.Agent":                    "§2.2.4: ExampleAgent_RestoreTag",
	"pia.SimBoard":                 "§2.3: ExampleSimBoard_Stalled",
	"pia.NewEstimator":             "DESIGN.md §2: the basic-block timing estimator, ExampleNewEstimator",
	"pia.ModelI960":                "DESIGN.md §2: ExampleNewEstimator",
	"pia.TimingBlock":              "DESIGN.md §2: ExampleNewEstimator",
	"pia.Debugger":                 "the debugger the paper names as current work (DESIGN.md §3): ExampleDebugger",
	"pia.NewDebugger":              "the debugger the paper names as current work (DESIGN.md §3): ExampleDebugger",

	"internal/core.StateSaver":                  "§2.1.2: the state a checkpoint saves; the Examples' behaviours implement it",
	"internal/core.Memory.Synchronous":          "§2.1.1: memory an interrupt handler touches is marked synchronous",
	"internal/core.Proc.Sync":                   "§2.1.1: a component waits for subsystem time before it observes shared state",
	"internal/core.Subsystem.RequestCheckpoint": "§2.1.2: a checkpoint request",
	"internal/core.Subsystem.LatestCheckpoint":  "§2.1.2: the checkpoint a request took",
	"internal/detail.Engine.Slider":             "§2.1.3: the detail-level slider",
	"internal/snapshot.Agent.RestoreTag":        "§2.2.4: the coordinated restore of a distributed snapshot",
	"internal/hwstub.SimBoard.Stalled":          "§2.3: the hardware stub stalls the hardware",
	"internal/hwstub.SimBoard.Buffer":           "§2.3: the hardware stub buffers interrupts for the simulator",
	"internal/debug.Debugger.AddBreak":          "the debugger the paper names as current work (DESIGN.md §3)",
	"internal/debug.Debugger.AddWatch":          "the debugger the paper names as current work (DESIGN.md §3)",
	"internal/debug.Debugger.Continue":          "the debugger the paper names as current work (DESIGN.md §3)",
	"internal/debug.Debugger.NetValue":          "the debugger the paper names as current work (DESIGN.md §3)",
	"internal/debug.Debugger.Rearm":             "the debugger the paper names as current work (DESIGN.md §3)",
	"internal/debug.Debugger.Remove":            "the debugger the paper names as current work (DESIGN.md §3)",
	"internal/debug.Breakpoint":                 "the debugger the paper names as current work (DESIGN.md §3): what AddBreak returns",
	"internal/debug.Watchpoint":                 "the debugger the paper names as current work (DESIGN.md §3): what AddWatch returns",
	"internal/debug.Hit":                        "the debugger the paper names as current work (DESIGN.md §3): why Continue paused",
	"internal/flight.Recorder.ServeHTTP":        "http.Handler",
	"internal/service.BudgetError.Unwrap":       "errors.Unwrap",
}

// maxPackageOnly bounds the exported names that only their own
// package's non-test code uses (the allow-list aside). Ten are the
// methods of hwstub.Device, which a driver for a real board implements;
// most of the rest are names other packages' tests read.
const maxPackageOnly = 37

// exported is one exported identifier declared in a non-test file of
// this package (dir "pia") or a package under internal/: a top-level
// func, type, var or const, or a method of an exported type
// ("Type.Method").
type exported struct {
	dir, name string
	method    string // the bare method name, "" for a top-level name
}

func (e exported) key() string { return e.dir + "." + e.name }

// surfaceScan parses every non-test Go file in the module and reports
// each exported name of this package or of internal/ that no non-test
// code outside its package uses, split by whether its own package's
// non-test code does; bench/, cmd/, examples/ and internal/ call this
// package.
// A top-level name is used where a file selects it through its import;
// a method wherever any other package selects a field or method of that
// name, which over-counts use but never misses one. A type named in the
// parameters of a function used outside is used there too: its callers
// build or implement it, so hidden lists each such function whose
// parameters name an unexported type; an allow-listed function counts
// as used outside. A type only returned may stay unexported.
func surfaceScan(t *testing.T) (testOnly, pkgOnly []exported, hidden []string) {
	t.Helper()
	fset := token.NewFileSet()
	var decls []exported
	declPos := map[token.Pos]bool{}
	params := map[string][]string{} // exported func key -> the names its parameter types use
	unexportedType := map[string]bool{}
	pkgUse := map[string]bool{}   // dir + "." + name: a top-level name used outside dir
	selUse := map[string]bool{}   // dir + "." + sel: a selector used in dir
	identUse := map[string]bool{} // dir + "." + ident: a bare identifier used in dir
	type file struct {
		dir string
		f   *ast.File
	}
	var files []file
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "." {
			dir = "pia"
		}
		files = append(files, file{dir, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, fl := range files {
		if fl.dir != "pia" && !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				declPos[d.Name.Pos()] = true
				e := exported{dir: fl.dir, name: d.Name.Name}
				if d.Recv != nil {
					r := recvName(d.Recv.List[0].Type)
					if !ast.IsExported(r) {
						continue
					}
					e = exported{dir: fl.dir, name: r + "." + d.Name.Name, method: d.Name.Name}
				}
				decls = append(decls, e)
				for _, f := range d.Type.Params.List {
					ast.Inspect(f.Type, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.SelectorExpr:
							return false // another package's type
						case *ast.Ident:
							params[e.key()] = append(params[e.key()], n.Name)
						}
						return true
					})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					var names []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
						unexportedType[fl.dir+"."+s.Name.Name] = !s.Name.IsExported()
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, n := range names {
						if n.IsExported() {
							declPos[n.Pos()] = true
							decls = append(decls, exported{dir: fl.dir, name: n.Name})
						}
					}
				}
			}
		}
	}
	for _, fl := range files {
		imports := map[string]string{} // local name -> package dir
		for _, im := range fl.f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			dir := strings.TrimPrefix(p, "repro/")
			name := p[strings.LastIndex(p, "/")+1:]
			if p == "repro" {
				dir, name = "pia", "pia"
			}
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = dir
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						pkgUse[dir+"."+n.Sel.Name] = true
						return false
					}
				}
				selUse[fl.dir+"."+n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.Field:
				// A field or interface method name is a declaration.
				if n.Type != nil {
					ast.Inspect(n.Type, visit)
				}
				return false
			case *ast.Ident:
				if !declPos[n.Pos()] {
					identUse[fl.dir+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(fl.f, visit)
	}
	dirs := map[string]bool{}
	for _, fl := range files {
		dirs[fl.dir] = true
	}
	outside := map[string]bool{}
	for _, e := range decls {
		if e.method == "" {
			outside[e.key()] = pkgUse[e.key()]
			continue
		}
		for d := range dirs {
			if d != e.dir && selUse[d+"."+e.method] {
				outside[e.key()] = true
				break
			}
		}
	}
	for _, e := range decls {
		if _, allowed := surfaceAllow[e.key()]; outside[e.key()] || allowed {
			for _, name := range params[e.key()] {
				if unexportedType[e.dir+"."+name] {
					hidden = append(hidden, e.key()+" takes "+name)
				}
				outside[e.dir+"."+name] = true
			}
		}
	}
	for _, e := range decls {
		inside := identUse[e.key()]
		if e.method != "" {
			inside = selUse[e.dir+"."+e.method]
		}
		switch {
		case outside[e.key()]:
		case inside:
			pkgOnly = append(pkgOnly, e)
		default:
			testOnly = append(testOnly, e)
		}
	}
	sort.Slice(testOnly, func(i, j int) bool { return testOnly[i].key() < testOnly[j].key() })
	sort.Slice(pkgOnly, func(i, j int) bool { return pkgOnly[i].key() < pkgOnly[j].key() })
	sort.Strings(hidden)
	return testOnly, pkgOnly, hidden
}

func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// TestPublicSurface holds the exported names of this package and of
// internal/ to what the programs use: every one has a non-test caller
// outside its package or an entry in surfaceAllow, at most
// maxPackageOnly are used only inside their own package, and the ones
// other packages call take no type those callers cannot name. An
// allow-listed name of this package is reached from the Example its
// entry cites.
func TestPublicSurface(t *testing.T) {
	testOnly, pkgOnly, hidden := surfaceScan(t)
	for _, h := range hidden {
		t.Errorf("%s, which its callers cannot name: export it", h)
	}
	allowed := map[string]bool{}
	for _, e := range testOnly {
		if _, ok := surfaceAllow[e.key()]; ok {
			allowed[e.key()] = true
			continue
		}
		t.Errorf("%s: exported, but no program outside its package calls it: delete it, unexport it, or allow-list the paper mechanism it is", e.key())
	}
	n := 0
	for _, e := range pkgOnly {
		if _, ok := surfaceAllow[e.key()]; ok {
			allowed[e.key()] = true
			continue
		}
		n++
		if testing.Verbose() {
			t.Logf("used only in its package: %s", e.key())
		}
	}
	if n > maxPackageOnly {
		t.Errorf("%d exported names are used only inside their own package, want at most %d: unexport the new ones", n, maxPackageOnly)
	}
	for k := range surfaceAllow {
		if !allowed[k] {
			t.Errorf("surfaceAllow names %s, which is gone or has a caller outside its package now", k)
		}
	}
	examples := exampleIdents(t)
	for k, why := range surfaceAllow {
		name, ok := strings.CutPrefix(k, "pia.")
		if !ok {
			continue
		}
		ex := exampleRef.FindString(why)
		used, ok := examples[ex]
		if !ok {
			t.Errorf("surfaceAllow cites no Example of example_test.go for %s: %q", k, why)
			continue
		}
		typ, method, isMethod := strings.Cut(name, ".")
		if isMethod {
			name = method
		}
		// An Example named after a type reaches it; any other names it.
		if !used[name] && ex != "Example"+typ && !strings.HasPrefix(ex, "Example"+typ+"_") {
			t.Errorf("surfaceAllow cites %s for %s, but that Example never names it", ex, k)
		}
	}
}

// exampleRef finds the Example a surfaceAllow entry cites.
var exampleRef = regexp.MustCompile(`Example\w*`)

// exampleIdents maps each Example function example_test.go declares to
// the identifiers its body uses.
func exampleIdents(t *testing.T) map[string]map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "example_test.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	examples := map[string]map[string]bool{}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || !strings.HasPrefix(fd.Name.Name, "Example") {
			continue
		}
		used := map[string]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				used[id.Name] = true
			}
			return true
		})
		examples[fd.Name.Name] = used
	}
	return examples
}
