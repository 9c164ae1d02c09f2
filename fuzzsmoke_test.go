package sparkscore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestFuzzSmokeListsEveryFuzzTarget holds the Makefile's fuzz-smoke target to
// its comment, "Every native fuzz target in the repository is listed here":
// its recipe names each func Fuzz* of every _test.go file in the repository
// exactly once, with that file's package, and no target that does not exist.
// Each -fuzz pattern must also match exactly one target of its package, or
// go test refuses to fuzz.
func TestFuzzSmokeListsEveryFuzzTarget(t *testing.T) {
	targets := map[string][]string{} // "./internal/data" → its Fuzz* names
	for pkg, files := range packageTestFiles(t) {
		for _, f := range files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Fuzz") {
					targets[pkg] = append(targets[pkg], fd.Name.Name)
				}
			}
		}
	}

	line := regexp.MustCompile(`^\t\$\(GO\) test (\./\S+) -run='\^\$\$' -fuzz=(\S+) -fuzztime=\S+$`)
	listed := map[string]bool{} // "./internal/data FuzzParseGenoText"
	for _, l := range makeRecipe(t, "fuzz-smoke") {
		m := line.FindStringSubmatch(l)
		if m == nil {
			t.Errorf("fuzz-smoke line %q is not a fuzz run of one package", l)
			continue
		}
		pattern, err := regexp.Compile(m[2])
		if err != nil {
			t.Errorf("fuzz-smoke line %q: %v", l, err)
			continue
		}
		var matched []string
		for _, name := range targets[m[1]] {
			if pattern.MatchString(name) {
				matched = append(matched, name)
			}
		}
		if len(matched) != 1 {
			t.Errorf("fuzz-smoke's -fuzz=%s matches %v in %s, want exactly one target", m[2], matched, m[1])
			continue
		}
		key := m[1] + " " + matched[0]
		if listed[key] {
			t.Errorf("fuzz-smoke lists %s twice", key)
		}
		listed[key] = true
	}
	for pkg, names := range targets {
		for _, name := range names {
			if !listed[pkg+" "+name] {
				t.Errorf("fuzz-smoke does not list %s in %s", name, pkg)
			}
		}
	}
	if len(listed) == 0 {
		t.Error("fuzz-smoke lists no target")
	}
}

// TestBenchSmokeNamesExistingBenchmarks: go test -bench with a pattern that
// matches no benchmark still exits 0 and prints PASS, so a renamed benchmark
// would drop out of the Makefile's bench-smoke target without a word. Each
// line's -bench pattern must match, in its top-level part, a func Benchmark*
// of the line's package, and in each /sub part a b.Run("…") literal of that
// package's test files.
func TestBenchSmokeNamesExistingBenchmarks(t *testing.T) {
	benchmarks, subs := map[string][]string{}, map[string][]string{}
	for pkg, files := range packageTestFiles(t) {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv == nil && strings.HasPrefix(n.Name.Name, "Benchmark") {
						benchmarks[pkg] = append(benchmarks[pkg], n.Name.Name)
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Run" || len(n.Args) == 0 {
						return true
					}
					if b, ok := sel.X.(*ast.Ident); !ok || b.Name != "b" {
						return true
					}
					if lit, ok := n.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if name, err := strconv.Unquote(lit.Value); err == nil {
							subs[pkg] = append(subs[pkg], name)
						}
					}
				}
				return true
			})
		}
	}

	line := regexp.MustCompile(`^\t\$\(GO\) test (\./\S+) .*-bench[ =]'?([^' ]+)'?`)
	lines := makeRecipe(t, "bench-smoke")
	if len(lines) == 0 {
		t.Fatal("bench-smoke runs no benchmark")
	}
	for _, l := range lines {
		m := line.FindStringSubmatch(l)
		if m == nil {
			t.Errorf("bench-smoke line %q is not a benchmark run of one package", l)
			continue
		}
		for i, part := range strings.Split(m[2], "/") {
			pattern, err := regexp.Compile(part)
			if err != nil {
				t.Errorf("bench-smoke line %q: %v", l, err)
				continue
			}
			names, what := benchmarks[m[1]], "func Benchmark*"
			if i > 0 {
				names, what = subs[m[1]], `b.Run("…") literal`
			}
			if !slices.ContainsFunc(names, pattern.MatchString) {
				t.Errorf("bench-smoke's -bench %s: part %q matches no %s in %s (%v)", m[2], part, what, m[1], names)
			}
		}
	}
}

// packageTestFiles parses every _test.go file in the repository, skipping
// testdata and dot directories, keyed by its package's directory as go test
// names it ("./internal/data").
func packageTestFiles(t *testing.T) map[string][]*ast.File {
	t.Helper()
	files := map[string][]*ast.File{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// makeRecipe returns the recipe lines of the Makefile's target: the lines
// after "target:" up to the first blank line.
func makeRecipe(t *testing.T, target string) []string {
	t.Helper()
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(makefile), "\n"+target+":\n")
	if !ok {
		t.Fatalf("Makefile has no %s target", target)
	}
	recipe, _, _ = strings.Cut(recipe, "\n\n")
	return strings.Split(recipe, "\n")
}
