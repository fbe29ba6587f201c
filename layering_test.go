package geomob

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"slices"
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

// TestBinaryOnlyThroughWire pins the byte layer (DESIGN.md §9): no
// non-test file under internal/ or cmd/ imports encoding/binary except
// internal/wire, whose bounded Reader every decoder reads through, and
// internal/testx, whose helpers forge damaged inputs for tests.
func TestBinaryOnlyThroughWire(t *testing.T) {
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if dir := filepath.ToSlash(path); dir == "internal/wire" || dir == "internal/testx" || d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/binary" {
					t.Errorf("%s imports encoding/binary: read and write bytes through internal/wire", path)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// interfaceMethods are method names the standard library calls through
// its own interfaces; an exported method of that name is in use however
// few callers name it.
var interfaceMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "Seek": true, "ReadAt": true, "WriteTo": true, "ReadFrom": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Is": true, "As": true, "Unwrap": true,
}

// unusedExports lists the exported functions, methods, variables and
// constants declared under internal/ that no non-test file outside their
// own package refers to. Callers are every other package of the module,
// bench/, cmd/ and examples/ included; internal/testx, which exists for
// tests, declares nothing here. References are matched by name, without
// type checking: a package-level identifier by its qualified pkg.Name
// selector, a method by any selector of its name, or by an interface
// declaring a method of that name (the method may satisfy it). Entries
// read "pkg.Name" or "pkg.Type.Method".
func unusedExports(t *testing.T) map[string]bool {
	t.Helper()
	type decl struct{ pkg, name, method string }
	var decls []decl
	qualified := map[string]bool{}            // "pkg.Name" named from another package
	selectors := map[string]map[string]bool{} // selector name -> packages using it
	declared := map[string]bool{}             // method names some interface declares
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg, inInternal := strings.CutPrefix(dir, "internal/")
		imported := map[string]string{} // local name -> internal package
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if rel, ok := strings.CutPrefix(p, "geomob/internal/"); ok {
				local := filepath.Base(rel)
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imported[local] = rel
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imported[x.Name] != "" {
					qualified[imported[x.Name]+"."+n.Sel.Name] = true
				}
				if selectors[n.Sel.Name] == nil {
					selectors[n.Sel.Name] = map[string]bool{}
				}
				selectors[n.Sel.Name][dir] = true
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						declared[name.Name] = true
					}
				}
			}
			return true
		})
		if !inInternal || pkg == "testx" {
			return nil
		}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				if !dl.Name.IsExported() {
					continue
				}
				if dl.Recv == nil {
					decls = append(decls, decl{pkg: pkg, name: dl.Name.Name})
					continue
				}
				recv := dl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					decls = append(decls, decl{pkg: pkg, name: id.Name, method: dl.Name.Name})
				}
			case *ast.GenDecl:
				for _, spec := range dl.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, name := range vs.Names {
							if name.IsExported() {
								decls = append(decls, decl{pkg: pkg, name: name.Name})
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	unused := map[string]bool{}
	for _, d := range decls {
		if d.method == "" {
			if !qualified[d.pkg+"."+d.name] {
				unused[d.pkg+"."+d.name] = true
			}
			continue
		}
		if interfaceMethods[d.method] || declared[d.method] {
			continue
		}
		used := false
		for dir := range selectors[d.method] {
			if dir != "internal/"+d.pkg {
				used = true
			}
		}
		if !used {
			unused[d.pkg+"."+d.name+"."+d.method] = true
		}
	}
	return unused
}

// unusedExportsPinned lists the exported identifiers under internal/ that
// no non-test code outside their package uses and that stay exported on
// purpose: test seams other packages' tests need. Anything else unused is
// to be deleted or unexported, with its tests.
var unusedExportsPinned = []string{
	// Forces multi-segment stores: TestBackfillPipelineMatchesSerial
	// (live), TestExecuteWindowPushdownMatchesFilter and
	// TestStoreShardedEquivalence (core).
	"tweetdb.Store.SetSegmentRecords",
	// Proves a restart decodes only the snapshot tail:
	// TestSnapshotRestartProperty and TestSnapshotCleanRestartZeroReplay
	// (live).
	"tweetdb.Store.SegmentLoads",
	// Names the coordinator ingest stages TestIngestTraceStages
	// (cmd/mobserve) expects in a trace and in /healthz.
	"cluster.IngestStages",
}

// TestUnusedExports fails when an exported identifier under internal/
// loses its last caller outside its package (unexport or delete it), and
// when a pinned entry gains one or disappears (delete the entry).
func TestUnusedExports(t *testing.T) {
	pinned := map[string]bool{}
	for _, id := range unusedExportsPinned {
		pinned[id] = true
	}
	got := unusedExports(t)
	for _, id := range slices.Sorted(maps.Keys(got)) {
		if !pinned[id] {
			t.Errorf("%s is exported, but no non-test code outside its package uses it: unexport or delete it", id)
		}
	}
	for _, id := range unusedExportsPinned {
		if !got[id] {
			t.Errorf("%s is used outside its package now, or gone: delete it from unusedExportsPinned", id)
		}
	}
}

// unusedUnexported lists the unexported package-level functions and
// methods declared under internal/ that no non-test file of their own
// package refers to: code only tests reach, left behind when its last
// caller went. References are matched by name, as unusedExports matches
// them: a function by any identifier of its name, a method by any
// selector of its name or an interface declaring it. Entries read
// "pkg.name" or "pkg.Type.name".
func unusedUnexported(t *testing.T) map[string]bool {
	t.Helper()
	type decl struct{ pkg, recv, name string }
	var decls []decl
	used := map[string]map[string]bool{} // package -> identifiers it names outside declarations
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		if used[pkg] == nil {
			used[pkg] = map[string]bool{}
		}
		declNames := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok || fd.Name.IsExported() || fd.Name.Name == "init" || fd.Name.Name == "main" {
				continue
			}
			declNames[fd.Name] = true
			dc := decl{pkg: pkg, name: fd.Name.Name}
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if ix, ok := recv.(*ast.IndexExpr); ok {
					recv = ix.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					dc.recv = id.Name
				}
			}
			decls = append(decls, dc)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !declNames[n] {
					used[pkg][n.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						used[pkg][name.Name] = true
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
	unused := map[string]bool{}
	for _, d := range decls {
		if !used[d.pkg][d.name] {
			id := d.pkg + "." + d.name
			if d.recv != "" {
				id = d.pkg + "." + d.recv + "." + d.name
			}
			unused[id] = true
		}
	}
	return unused
}

// TestUnusedUnexported fails when an unexported function or method under
// internal/ has no caller left outside tests: delete it, and point its
// tests at the code that replaced it.
func TestUnusedUnexported(t *testing.T) {
	for _, id := range slices.Sorted(maps.Keys(unusedUnexported(t))) {
		t.Errorf("%s is unexported, and no non-test code of its package uses it: delete it", id)
	}
}
