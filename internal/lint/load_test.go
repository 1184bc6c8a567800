package lint

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// TestLoadDirSkipsExternalTestPackage loads a directory whose _test.go
// file declares an external test package (exttest_test). The loader
// analyzes non-test files only, so the mismatched package name must not
// break loading and the test file must not appear in the package.
func TestLoadDirSkipsExternalTestPackage(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/exttest", "exttest")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Name != "exttest" {
		t.Errorf("package name = %q, want %q", pkg.Name, "exttest")
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (the non-test file)", len(pkg.Files))
	}
	if name := filepath.Base(loader.Fset.Position(pkg.Files[0].Pos()).Filename); name != "ext.go" {
		t.Errorf("loaded file %q, want ext.go", name)
	}
}

// TestLoadDirHonoursBuildConstraints loads a package that declares the same
// constant once per architecture (a _amd64.go file and a `//go:build !amd64`
// twin) and keeps a `//go:build ignore` main beside them. The loader must
// pick the host's file set, as the compiler does: the shared file plus one
// of the pair.
func TestLoadDirHonoursBuildConstraints(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/archsplit", "archsplit")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkg.Files {
		got = append(got, filepath.Base(loader.Fset.Position(f.Pos()).Filename))
	}
	want := []string{"archsplit.go", "lanes_other.go"}
	if runtime.GOARCH == "amd64" {
		want = []string{"archsplit.go", "lanes_amd64.go"}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("loaded %v, want %v", got, want)
	}
}

// writeTree lays out a file tree under root from rel-path -> contents.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// loadTempModule writes files under a fresh directory and loads the module
// they form.
func loadTempModule(t *testing.T, files map[string]string) []*Package {
	t.Helper()
	root := t.TempDir()
	writeTree(t, root, files)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestLoadModuleSkipsTestOnlyDirs builds a throwaway module in which one
// directory holds nothing but _test.go files. LoadModule must load the
// real packages and skip the test-only directory, because a directory
// without non-test Go files is not a package the linters can check.
func TestLoadModuleSkipsTestOnlyDirs(t *testing.T) {
	pkgs := loadTempModule(t, map[string]string{
		"go.mod":              "module example.com/m\n\ngo 1.21\n",
		"a.go":                "package m\n\nimport \"example.com/m/sub\"\n\nvar _ = sub.B\n",
		"sub/b.go":            "package sub\n\n// B is exported for the root package.\nvar B = 1\n",
		"onlytest/x_test.go":  "package onlytest\n\nimport \"testing\"\n\nfunc TestX(t *testing.T) {}\n",
		"onlytest/y_test.go":  "package onlytest_test\n\nimport \"testing\"\n\nfunc TestY(t *testing.T) {}\n",
		"sub/helper_test.go":  "package sub_test\n\nimport \"testing\"\n\nfunc TestB(t *testing.T) {}\n",
		"testdata/ignored.go": "package broken!\n",
	})
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	want := []string{"example.com/m", "example.com/m/sub"}
	if len(paths) != len(want) {
		t.Fatalf("loaded %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("loaded %v, want %v", paths, want)
		}
	}
}
