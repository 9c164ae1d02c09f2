package sparkscore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// production reports whether name is a non-test Go file.
func production(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// sourceFile is one parsed non-test file: its package's directory, relative
// to the repository root with forward slashes, and its imports of this
// repository's packages by local name.
type sourceFile struct {
	dir     string
	file    *ast.File
	imports map[string]string // local name → directory, "internal/rdd"
}

// parseTree parses every non-test Go file under internal, cmd, examples and
// bench: the files whose references count.
func parseTree(t *testing.T) []sourceFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []sourceFile
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !production(d.Name()) {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			sf := sourceFile{dir: filepath.ToSlash(filepath.Dir(path)), file: f, imports: map[string]string{}}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				dir, ok := strings.CutPrefix(p, "sparkscore/")
				if !ok {
					continue
				}
				local := pkgName(dir)
				if imp.Name != nil {
					local = imp.Name.Name
				}
				sf.imports[local] = dir
			}
			files = append(files, sf)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// pkgName is the last element of a package directory.
func pkgName(dir string) string { return dir[strings.LastIndex(dir, "/")+1:] }

// recvType is the type name of a method's receiver: T for T, *T, T[E].
func recvType(fd *ast.FuncDecl) string {
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch r := recv.(type) {
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// surfaceKept names the exported declarations that stay although no
// production file references them, each with the test that needs it exported.
// An entry that stops being needed fails the census too.
var surfaceKept = map[string]string{
	"rdd.Context.FailExecutor":      "fault hook for internal/server/server_test.go (storage loss under a served request)",
	"rdd.Context.FailExecutorAfter": "fault hook for internal/core/core_test.go (executor failure mid-analysis)",
	"rdd.ListenerFunc":              "event probe for internal/core/spill_test.go, batch_test.go and permutation_test.go",
	"gen.GenoBlocks":                "packed-matrix fixture for internal/stats/widekernel_test.go and internal/assoc/assoc_test.go",
}

// TestExportedSurfaceHasCallers is the rule "one production path per layer,
// oracles in test code" made executable: every exported function, method and
// type of every internal/* package must be referenced by a non-test file
// under internal, cmd, examples or bench other than by its own declaration
// (a type's declaration includes its methods). There is no type checker here.
// A function or type counts as referenced by a qualified pkg.Name in a file
// that imports its package, or by its bare name in a file of that package; a
// method by any selector .Name in a package that declares or imports it, or —
// an interface implementation — by an interface method of that name in the
// tree or among error's, errors.Unwrap's and fmt.Stringer's. internal/rdd, the engine that is
// this repository's library, keeps a stricter rule for its functions and
// methods: their references must come from outside the package. A package
// whose name ends in "test" is a test fixture: its names need no callers, and
// no production file outside bench may import it.
func TestExportedSurfaceHasCallers(t *testing.T) {
	files := parseTree(t)

	kinds := map[string]string{}     // "rdd.Context.FailExecutor" → "method"
	methods := map[string][]string{} // "rdd.FailExecutor" → its method keys
	// Interface methods: error's, fmt.Stringer's, and the tree's own.
	ifaceMethods := map[string]bool{"Error": true, "String": true, "Unwrap": true}
	for _, f := range files {
		pkg := pkgName(f.dir)
		ast.Inspect(f.file, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, id := range m.Names {
						ifaceMethods[id.Name] = true
					}
				}
			}
			return true
		})
		if !strings.HasPrefix(f.dir, "internal/") || strings.HasSuffix(pkg, "test") {
			continue
		}
		for _, d := range f.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case !d.Name.IsExported():
				case d.Recv == nil:
					kinds[pkg+"."+d.Name.Name] = "func"
				case ast.IsExported(recvType(d)):
					key := pkg + "." + recvType(d) + "." + d.Name.Name
					kinds[key] = "method"
					methods[pkg+"."+d.Name.Name] = append(methods[pkg+"."+d.Name.Name], key)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						kinds[pkg+"."+ts.Name.Name] = "type"
					}
				}
			}
		}
	}

	// A method is called through values whose type a file need not import,
	// so a file sees the methods of every package its own package imports,
	// and of every package whose type an exported function or method of one
	// of those returns (rdd's Context.FS returns a *dfs.FS).
	returns := map[string][]string{} // "internal/rdd" → {"dfs", …}
	for _, f := range files {
		for _, d := range f.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() && fd.Type.Results != nil {
				ast.Inspect(fd.Type.Results, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if id, ok := sel.X.(*ast.Ident); ok && f.imports[id.Name] != "" {
							returns[f.dir] = append(returns[f.dir], pkgName(f.imports[id.Name]))
						}
					}
					return true
				})
			}
		}
	}
	pkgImports := map[string]map[string]bool{} // "internal/rdd" → {"cluster": true, …}
	for _, f := range files {
		if pkgImports[f.dir] == nil {
			pkgImports[f.dir] = map[string]bool{}
		}
		for _, dir := range f.imports {
			pkgImports[f.dir][pkgName(dir)] = true
			for _, p := range returns[dir] {
				pkgImports[f.dir][p] = true
			}
		}
	}

	used := map[string]bool{}
	var fixtures []string
	for _, f := range files {
		pkg := pkgName(f.dir)
		own := strings.HasPrefix(f.dir, "internal/")
		strict := f.dir == "internal/rdd"
		for _, dir := range f.imports {
			if strings.HasSuffix(dir, "test") && !strings.HasPrefix(f.dir, "bench") {
				fixtures = append(fixtures, f.dir+" imports "+dir)
			}
		}
		for _, d := range f.file.Decls {
			// self holds the keys this declaration declares: a reference
			// to one of them from inside it does not count.
			self := map[string]bool{}
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					self[pkg+"."+d.Name.Name] = true
				} else {
					self[pkg+"."+recvType(d)] = true
					self[pkg+"."+recvType(d)+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						self[pkg+"."+ts.Name.Name] = true
					}
				}
			}
			note := func(key string) {
				if !self[key] {
					used[key] = true
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// The receiver names its type without using it.
					ast.Inspect(n.Type, visit)
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				case *ast.SelectorExpr:
					if id, ok := n.X.(*ast.Ident); ok {
						if dir, ok := f.imports[id.Name]; ok {
							note(pkgName(dir) + "." + n.Sel.Name)
							return false
						}
					}
					for p := range pkgImports[f.dir] {
						for _, key := range methods[p+"."+n.Sel.Name] {
							note(key)
						}
					}
					if own && !strict {
						for _, key := range methods[pkg+"."+n.Sel.Name] {
							note(key)
						}
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if key := pkg + "." + n.Name; own && (!strict || kinds[key] == "type") {
						note(key)
					}
				}
				return true
			}
			ast.Inspect(d, visit)
		}
	}
	for key, kind := range kinds {
		if kind == "method" && ifaceMethods[key[strings.LastIndex(key, ".")+1:]] {
			used[key] = true
		}
	}

	var orphans, stale []string
	for key, kind := range kinds {
		if !used[key] && surfaceKept[key] == "" {
			orphans = append(orphans, kind+" "+key)
		}
	}
	for key := range surfaceKept {
		if kinds[key] == "" || used[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(orphans)
	sort.Strings(stale)
	for _, o := range orphans {
		t.Errorf("exported %s has no production caller: delete it, move it into a _test.go file, or add it to surfaceKept with the test that needs it", o)
	}
	for _, s := range stale {
		t.Errorf("surfaceKept[%q] is stale: the name is gone or has a production caller now", s)
	}
	for _, s := range fixtures {
		t.Errorf("%s: a test fixture package is for tests and bench only", s)
	}
}

// censusStructs names the option structs of the tree by declaring package.
var censusStructs = map[string][]string{
	"internal/rdd":     {"Config", "FaultProfile", "SchedulerConfig", "PoolSpec"},
	"internal/core":    {"Options"},
	"internal/assoc":   {"Config"},
	"internal/server":  {"Config", "PoolConfig"},
	"internal/tuner":   {"Workload"},
	"internal/gen":     {"Config"},
	"internal/cluster": {"Config"},
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
// non-test file under internal, cmd or bench outside the declaring package.
// Examples do not count: an option kept alive only by a demo is a demo's
// option.
func TestOptionsHaveProductionSetters(t *testing.T) {
	files := parseTree(t)

	// fields["rdd.Config"]["Seed"]: the exported fields of each census struct.
	fields := map[string]map[string]bool{}
	for _, f := range files {
		names := censusStructs[f.dir]
		if names == nil {
			continue
		}
		ast.Inspect(f.file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !slices.Contains(names, ts.Name.Name) {
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
			fields[pkgName(f.dir)+"."+ts.Name.Name] = set
			return true
		})
	}
	for dir, names := range censusStructs {
		for _, n := range names {
			if fields[pkgName(dir)+"."+n] == nil {
				t.Fatalf("census struct %s.%s not found in %s", pkgName(dir), n, dir)
			}
		}
	}

	used := map[string]bool{} // "rdd.Config.Seed"
	for _, f := range files {
		if strings.HasPrefix(f.dir, "examples/") {
			continue
		}
		// local import name → census package name, leaving out the package
		// this file belongs to.
		imported := map[string]string{}
		for local, dir := range f.imports {
			if censusStructs[dir] != nil && dir != f.dir {
				imported[local] = pkgName(dir)
			}
		}
		if len(imported) == 0 {
			continue
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
		ast.Inspect(f.file, func(n ast.Node) bool {
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
