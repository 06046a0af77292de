package pia

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testFlag matches a go test flag that selects functions by name, with
// its pattern quoted or bare: -run 'A|B', -run=^$$, -fuzz=FuzzX$$,
// -bench 'BenchmarkA|BenchmarkB'.
var testFlag = regexp.MustCompile(`-(run|fuzz|bench)[ =]('[^']*'|[^ ']+)`)

// TestMakefileGatesNameRealTests holds every gate in the Makefile that
// selects tests by name to functions that exist: each alternative of a
// -run, -fuzz or -bench pattern, anchors stripped, must prefix the name
// of a test, fuzz target, example or benchmark (a -bench one with or
// without "Benchmark") in a _test.go file of one of the packages its
// line tests. A pattern that matches nothing
// passes vacuously, so a deleted or renamed test would otherwise leave
// its gate green and empty.
func TestMakefileGatesNameRealTests(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	gates := 0
	for i, line := range strings.Split(string(mk), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "$(GO) test ") && !strings.Contains(line, " $(GO) test ") {
			continue
		}
		line = line[strings.Index(line, "$(GO) test "):]
		var pkgs []string
		for _, f := range strings.Fields(line) {
			if f == "." || strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		funcs := map[string]bool{}
		for _, p := range pkgs {
			for name := range testFuncs(t, p) {
				funcs[name] = true
			}
		}
		for _, m := range testFlag.FindAllStringSubmatch(line, -1) {
			pattern := strings.Trim(m[2], "'")
			if pattern == "^$$" || pattern == "." {
				continue // no test at all, or every one
			}
			gates++
			for _, alt := range strings.Split(pattern, "|") {
				alt = strings.TrimSuffix(strings.TrimPrefix(alt, "^"), "$$")
				found := false
				for name := range funcs {
					// A benchmark pattern may leave out the Benchmark prefix.
					if strings.HasPrefix(name, alt) || m[1] == "bench" && strings.HasPrefix(name, "Benchmark"+alt) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("Makefile:%d: -%s alternative %q names no function in %v", i+1, m[1], alt, pkgs)
				}
			}
		}
	}
	if gates == 0 {
		t.Fatal("found no gate that selects tests by name")
	}
}

// testFuncs returns the names of the Test, Fuzz, Example and Benchmark
// functions in the _test.go files of pkg, a "./dir" or "./dir/..."
// package pattern relative to the module root.
func testFuncs(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	dir, recursive := strings.CutSuffix(pkg, "/...")
	out := map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && !recursive {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Example", "Benchmark"} {
				if strings.HasPrefix(fd.Name.Name, prefix) {
					out[fd.Name.Name] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
