package sparkscore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Fuzz") {
				targets[pkg] = append(targets[pkg], fd.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(makefile), "\nfuzz-smoke:\n")
	if !ok {
		t.Fatal("Makefile has no fuzz-smoke target")
	}
	recipe, _, _ = strings.Cut(recipe, "\n\n")
	line := regexp.MustCompile(`^\t\$\(GO\) test (\./\S+) -run='\^\$\$' -fuzz=(\S+) -fuzztime=\S+$`)
	listed := map[string]bool{} // "./internal/data FuzzParseGenoText"
	for _, l := range strings.Split(recipe, "\n") {
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
