package rdd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceKept names the exported functions and methods that stay although no
// production file outside this package references them, each with the caller
// that needs it exported. An entry that stops being needed fails the test too.
var surfaceKept = map[string]string{
	"FailExecutor":      "fault hook for server_test.go (storage loss under a served request)",
	"FailExecutorAfter": "fault hook for core_test.go (executor failure mid-analysis)",
}

// TestExportedSurfaceHasCallers is the rule "the engine is this repository's
// library" made executable: every exported package-level function and every
// exported *Context / *RDD method of internal/rdd must be referenced by a
// non-test file under internal, cmd, examples or bench outside this package.
// A package-level function counts as referenced by a qualified rdd.Name; a
// method — there is no type checker here — by any selector .Name in a file
// that imports this package. Event and listener types are out of scope.
func TestExportedSurfaceHasCallers(t *testing.T) {
	const pkgPath = "sparkscore/internal/rdd"
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	production := func(name string) bool {
		return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
	}

	funcs, methods := map[string]bool{}, map[string]bool{}
	own, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range own {
		if !production(path) {
			continue
		}
		for _, d := range parse(path).Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv == nil {
				funcs[fd.Name.Name] = true
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if idx, ok := recv.(*ast.IndexExpr); ok { // RDD[T]
				recv = idx.X
			}
			if id, ok := recv.(*ast.Ident); ok && (id.Name == "Context" || id.Name == "RDD") {
				methods[fd.Name.Name] = true
			}
		}
	}

	usedFuncs, usedMethods := map[string]bool{}, map[string]bool{}
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(filepath.Join("..", "..", root), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if root == "internal" && d.Name() == "rdd" {
					return filepath.SkipDir
				}
				return nil
			}
			if !production(d.Name()) {
				return nil
			}
			f := parse(path)
			local := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == pkgPath {
					local = "rdd"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
						usedFuncs[sel.Sel.Name] = true
					} else {
						usedMethods[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var orphans, stale []string
	for name := range funcs {
		if !usedFuncs[name] && surfaceKept[name] == "" {
			orphans = append(orphans, "func "+name)
		}
	}
	for name := range methods {
		if !usedMethods[name] && surfaceKept[name] == "" {
			orphans = append(orphans, "method "+name)
		}
	}
	for name := range surfaceKept {
		if (!funcs[name] && !methods[name]) || usedFuncs[name] || usedMethods[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(orphans)
	sort.Strings(stale)
	for _, o := range orphans {
		t.Errorf("exported %s has no caller outside internal/rdd's own tests: delete it, unexport it, or add it to surfaceKept with the caller that needs it", o)
	}
	for _, s := range stale {
		t.Errorf("surfaceKept[%q] is stale: the name is gone or has a production caller now", s)
	}
}
