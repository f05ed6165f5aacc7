package rendezvous

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestMakeFuzzRunsEveryTarget: `make fuzz` names every fuzz target by hand,
// so a Fuzz function missing from its recipe would never be fuzzed in CI,
// and a stale recipe line would fuzz nothing. The set of `func Fuzz*`
// targets in this module's test files must equal the set of (package,
// target) pairs the recipe runs, and the target count the CI workflow's
// comment quotes must match it.
func TestMakeFuzzRunsEveryTarget(t *testing.T) {
	inTree := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module (perfbench)
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
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				inTree[fuzzTarget(filepath.Dir(path), fn.Name.Name)] = true
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
	recipe := regexp.MustCompile(`-fuzz (\w+) .* (\S+)$`)
	inMake := map[string]bool{}
	inFuzz := false
	for _, line := range strings.Split(string(makefile), "\n") {
		switch {
		case strings.HasPrefix(line, "fuzz:"):
			inFuzz = true
		case inFuzz && strings.HasPrefix(line, "\t"):
			if m := recipe.FindStringSubmatch(line); m != nil {
				inMake[fuzzTarget(m[2], m[1])] = true
			}
		default:
			inFuzz = false
		}
	}

	for _, target := range slices.Sorted(maps.Keys(inTree)) {
		if !inMake[target] {
			t.Errorf("fuzz target %s is not run by `make fuzz`", target)
		}
	}
	for _, target := range slices.Sorted(maps.Keys(inMake)) {
		if !inTree[target] {
			t.Errorf("`make fuzz` runs %s, which no test file defines", target)
		}
	}

	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(\d+) targets ×`).FindSubmatch(ci)
	if m == nil {
		t.Fatal("ci.yml no longer quotes the fuzz target count (\"N targets ×\")")
	}
	if quoted, _ := strconv.Atoi(string(m[1])); quoted != len(inTree) {
		t.Errorf("ci.yml quotes %d fuzz targets, the tree has %d", quoted, len(inTree))
	}
}

// fuzzTarget names a fuzz target by its package directory, in the
// Makefile's ./dir form, and its function name.
func fuzzTarget(dir, name string) string {
	dir = filepath.ToSlash(filepath.Clean(dir))
	if dir != "." {
		dir = "./" + dir
	}
	return dir + " " + name
}
