package geomob

import (
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// moduleDeps returns every geomob package the one at pkg (a path relative
// to the repository root) depends on, transitively, through its non-test
// files — what `go list -deps` prints, without running the go tool.
func moduleDeps(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	seen := map[string]bool{}
	queue := []string{pkg}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		p, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, imp := range p.Imports {
			rel, ok := strings.CutPrefix(imp, "geomob/")
			if ok && !seen[rel] {
				seen[rel] = true
				queue = append(queue, rel)
			}
		}
	}
	return seen
}

// TestLayering pins the two seams the design rests on (DESIGN.md §13).
// The science side — what reproduces the paper — never reaches the
// service side, so an analysis can be changed and verified without a
// server in the build. And in cmd/mobserve only the engine file opens
// storage: the handlers reach it through the engine or not at all.
func TestLayering(t *testing.T) {
	science := []string{"core", "mobility", "models", "population", "census", "stats", "epidemic", "experiments", "synth"}
	service := []string{"live", "cluster", "wal", "ring", "svcache"}
	for _, pkg := range science {
		deps := moduleDeps(t, "internal/"+pkg)
		for _, banned := range service {
			if deps["internal/"+banned] {
				t.Errorf("internal/%s depends on internal/%s", pkg, banned)
			}
		}
	}

	files, err := filepath.Glob("cmd/mobserve/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("cmd/mobserve: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		opensStorage := false
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "geomob/internal/tweetdb" {
				opensStorage = true
			}
		}
		if want := filepath.Base(file) == "engine.go"; opensStorage != want {
			t.Errorf("%s imports internal/tweetdb: %v, want %v", file, opensStorage, want)
		}
	}
}
