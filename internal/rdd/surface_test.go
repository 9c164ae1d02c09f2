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

// production reports whether name is a non-test Go file.
func production(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// sourceParser returns a parser of Go files that fails the test on an error.
func sourceParser(t *testing.T) func(path string) *ast.File {
	fset := token.NewFileSet()
	return func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
}

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
	parse := sourceParser(t)

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

// censusStructs names the option structs of the tree by declaring package.
var censusStructs = map[string][]string{
	"sparkscore/internal/rdd":    {"Config", "FaultProfile", "SchedulerConfig", "PoolSpec"},
	"sparkscore/internal/core":   {"Options"},
	"sparkscore/internal/assoc":  {"Config"},
	"sparkscore/internal/server": {"Config", "PoolConfig"},
}

// optionsKept names the option fields that stay although no production file
// outside their package names them, each with the reason. An entry that
// stops being needed fails the test too. (core.Options.Cache, set only
// through WithoutCache, needs no entry: the selector rule below matches by
// name, and harness.Params.Cache — the switch that calls WithoutCache —
// carries the same one.)
var optionsKept = map[string]string{
	"assoc.Config.Family":             "selects the score statistic, not a tuning value; callers take the gaussian default",
	"assoc.Config.HistBins":           "the BH sketch's first bin must sit below alpha/T for T tests: examples/eqtl_gaussian needs 2^20 bins at 48 000 tests, the 4096 default serves the CLI, server and bench",
	"server.PoolConfig.Weight":        "deployment setting decoded from sparkserved's -pools JSON",
	"server.PoolConfig.MinShare":      "deployment setting decoded from sparkserved's -pools JSON",
	"server.PoolConfig.MaxConcurrent": "deployment setting decoded from sparkserved's -pools JSON",
	"server.PoolConfig.MaxQueue":      "deployment setting decoded from sparkserved's -pools JSON",
}

// TestOptionsHaveProductionSetters is the options census made executable: an
// option nobody sets is a constant with extra steps. Every exported field of
// every censusStructs struct must be named — as a composite-literal key of
// that struct, or, there being no type checker here, as any selector .Field
// that is not a call in a file that imports the declaring package — by a
// non-test file under
// internal, cmd or bench outside the declaring package. Examples do not
// count: an option kept alive only by a demo is a demo's option.
func TestOptionsHaveProductionSetters(t *testing.T) {
	parse := sourceParser(t)
	root := filepath.Join("..", "..")
	pkgDir := func(pkgPath string) string {
		return filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pkgPath, "sparkscore/")))
	}

	// fields["rdd.Config"]["Seed"]: the exported fields of each census struct.
	fields := map[string]map[string]bool{}
	for pkgPath, names := range censusStructs {
		short := filepath.Base(pkgDir(pkgPath))
		want := map[string]bool{}
		for _, n := range names {
			want[n] = true
		}
		files, err := filepath.Glob(filepath.Join(pkgDir(pkgPath), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if !production(path) {
				continue
			}
			ast.Inspect(parse(path), func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !want[ts.Name.Name] {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				set := map[string]bool{}
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						if id.IsExported() {
							set[id.Name] = true
						}
					}
				}
				fields[short+"."+ts.Name.Name] = set
				return true
			})
		}
		for _, n := range names {
			if fields[short+"."+n] == nil {
				t.Fatalf("census struct %s.%s not found in %s", short, n, pkgDir(pkgPath))
			}
		}
	}

	used := map[string]bool{} // "rdd.Config.Seed"
	for _, top := range []string{"internal", "cmd", "bench"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !production(d.Name()) {
				return err
			}
			f := parse(path)
			// local import name → census package short name, leaving out the
			// package this file belongs to.
			imported := map[string]string{}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if censusStructs[p] == nil || filepath.Clean(filepath.Dir(path)) == filepath.Clean(pkgDir(p)) {
					continue
				}
				local := filepath.Base(pkgDir(p))
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imported[local] = filepath.Base(pkgDir(p))
			}
			if len(imported) == 0 {
				return nil
			}
			// structOf resolves pkg.Type to its census name, "" if it is not one.
			structOf := func(e ast.Expr) string {
				sel, ok := e.(*ast.SelectorExpr)
				if !ok {
					return ""
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok || imported[id.Name] == "" {
					return ""
				}
				if name := imported[id.Name] + "." + sel.Sel.Name; fields[name] != nil {
					return name
				}
				return ""
			}
			noteKeys := func(name string, lit *ast.CompositeLit) {
				for _, el := range lit.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && fields[name][id.Name] {
							used[name+"."+id.Name] = true
						}
					}
				}
			}
			called := map[ast.Expr]bool{} // x.Cache() is a method, not the field
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					called[n.Fun] = true
				case *ast.CompositeLit:
					if name := structOf(n.Type); name != "" {
						noteKeys(name, n)
					} else if arr, ok := n.Type.(*ast.ArrayType); ok {
						// []pkg.Type{{...}, {...}}: the elements elide the type.
						if name := structOf(arr.Elt); name != "" {
							for _, el := range n.Elts {
								if lit, ok := el.(*ast.CompositeLit); ok && lit.Type == nil {
									noteKeys(name, lit)
								}
							}
						}
					}
				case *ast.SelectorExpr:
					if called[n] {
						return true
					}
					for _, short := range imported {
						for name, set := range fields {
							if strings.HasPrefix(name, short+".") && set[n.Sel.Name] {
								used[name+"."+n.Sel.Name] = true
							}
						}
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

	var unset, stale []string
	for name, set := range fields {
		for field := range set {
			if full := name + "." + field; !used[full] && optionsKept[full] == "" {
				unset = append(unset, full)
			}
		}
	}
	for full := range optionsKept {
		i := strings.LastIndex(full, ".")
		if !fields[full[:i]][full[i+1:]] || used[full] {
			stale = append(stale, full)
		}
	}
	sort.Strings(unset)
	sort.Strings(stale)
	for _, u := range unset {
		t.Errorf("option %s is named by no production file outside its package: make it a constant, or add it to optionsKept with the reason it stays", u)
	}
	for _, s := range stale {
		t.Errorf("optionsKept[%q] is stale: the field is gone or has a production setter now", s)
	}
}
