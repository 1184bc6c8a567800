package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// cacheTestModule lays out a small module with a dependency chain
// (root imports sub) and an independent leaf package.
func cacheTestModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod":    "module example.com/m\n\ngo 1.21\n",
		"a.go":      "package m\n\nimport \"example.com/m/sub\"\n\nvar _ = sub.B\n",
		"sub/b.go":  "package sub\n\nvar B = 1\n",
		"leaf/c.go": "package leaf\n\nvar C = 2\n",
	})
	return root
}

// TestModuleIndexKeyStability pins the cache-key contract: unchanged
// trees rebuild to identical keys; editing a package changes its own
// key, its importers' keys, and the module key, and leaves unrelated
// packages untouched.
func TestModuleIndexKeyStability(t *testing.T) {
	root := cacheTestModule(t)
	ix1, err := BuildModuleIndex(root)
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := BuildModuleIndex(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{".", "sub", "leaf"} {
		if k1, k2 := ix1.PackageKey(rel), ix2.PackageKey(rel); k1 == "" || k1 != k2 {
			t.Errorf("package %q: keys %q vs %q, want equal and non-empty", rel, k1, k2)
		}
	}
	if ix1.ModuleKey() != ix2.ModuleKey() {
		t.Errorf("module keys differ on an unchanged tree")
	}

	// Edit sub: even a comment-only change is a content change.
	path := filepath.Join(root, "sub", "b.go")
	if err := os.WriteFile(path, []byte("package sub\n\n// edited\nvar B = 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ix3, err := BuildModuleIndex(root)
	if err != nil {
		t.Fatal(err)
	}
	if ix3.PackageKey("sub") == ix1.PackageKey("sub") {
		t.Error("sub key unchanged after editing sub")
	}
	if ix3.PackageKey(".") == ix1.PackageKey(".") {
		t.Error("root key unchanged although root imports the edited sub")
	}
	if ix3.PackageKey("leaf") != ix1.PackageKey("leaf") {
		t.Error("leaf key changed although leaf does not depend on sub")
	}
	if ix3.ModuleKey() == ix1.ModuleKey() {
		t.Error("module key unchanged after editing a package")
	}
}

// TestCacheSaltIgnoresRuleSelection pins the per-rule keying contract:
// the salt must NOT vary with the selected rule set (entries are keyed
// per rule instead), so a -only subset run shares the full run's cache.
// Rule identity still separates entries, via Key parts.
func TestCacheSaltIgnoresRuleSelection(t *testing.T) {
	root := cacheTestModule(t)
	ix, err := BuildModuleIndex(root)
	if err != nil {
		t.Fatal(err)
	}
	if CacheSalt(ix) != CacheSalt(ix) {
		t.Error("salt is not deterministic")
	}
	c := OpenCache(filepath.Join(root, ".lintcache"), CacheSalt(ix))
	pk := ix.PackageKey("sub")
	if c.Key("pkg", "sub", pk, "errdrop") == c.Key("pkg", "sub", pk, "privflow") {
		t.Error("per-rule keys collide across rules")
	}
}

// TestCacheSaltCoversAnalyzerSources pins the salt's self-invalidation
// contract for the concurrency suite: editing an analyzer source file
// under internal/lint (say lockorder.go) must change the salt — so every
// cached entry, per-package and module, goes stale the moment a rule's
// implementation changes — while editing only a testdata fixture must
// NOT (fixtures feed the analyzer's own tests, not the analysis of the
// target module, and testdata trees sit outside the hashed package set).
func TestCacheSaltCoversAnalyzerSources(t *testing.T) {
	// The three concurrency-rule sources must actually live in
	// internal/lint: that placement is what puts them inside the salted
	// package, and this test's temp-module contract depends on it.
	for _, src := range []string{"lockorder.go", "goroleak.go", "cancelflow.go", "concurrency.go"} {
		if _, err := os.Stat(src); err != nil {
			t.Fatalf("analyzer source %s not in internal/lint: %v", src, err)
		}
	}

	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod":                               "module example.com/m\n\ngo 1.21\n",
		"internal/lint/lockorder.go":           "package lint\n\nvar ruleLockOrder = 1\n",
		"internal/lint/testdata/src/lo/fix.go": "package lo\n\nvar Fixture = 1\n",
		"cmd/gtv-lint/main.go":                 "package main\n\nfunc main() {}\n",
		"internal/vfl/client.go":               "package vfl\n\nvar Client = 1\n",
	})
	ix1, err := BuildModuleIndex(root)
	if err != nil {
		t.Fatal(err)
	}
	salt1 := CacheSalt(ix1)

	// An analyzer-source edit (even comment-only) must move the salt.
	path := filepath.Join(root, "internal", "lint", "lockorder.go")
	if err := os.WriteFile(path, []byte("package lint\n\n// tightened cycle check\nvar ruleLockOrder = 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ix2, err := BuildModuleIndex(root)
	if err != nil {
		t.Fatal(err)
	}
	if CacheSalt(ix2) == salt1 {
		t.Error("salt unchanged after editing an analyzer source file")
	}

	// A fixture-only edit must leave the salt (and the analyzer package
	// key) alone: fixtures are test inputs, not analysis semantics.
	salt2 := CacheSalt(ix2)
	fixture := filepath.Join(root, "internal", "lint", "testdata", "src", "lo", "fix.go")
	if err := os.WriteFile(fixture, []byte("package lo\n\nvar Fixture = 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ix3, err := BuildModuleIndex(root)
	if err != nil {
		t.Fatal(err)
	}
	if ix3.PackageKey("internal/lint") != ix2.PackageKey("internal/lint") {
		t.Error("internal/lint package key moved on a fixture-only edit")
	}
	if CacheSalt(ix3) != salt2 {
		t.Error("salt moved on a fixture-only edit")
	}
	// The target module's own packages stay cacheable across both edits:
	// analyzer changes invalidate via the salt, not via package keys.
	if ix3.PackageKey("internal/vfl") != ix1.PackageKey("internal/vfl") {
		t.Error("analyzed-package key moved although only analyzer/fixture files changed")
	}
}

// TestCacheRoundTrip covers Get/Put/Prune: a put entry hits with its
// findings (paths included) intact, unknown keys miss, and pruning with
// an empty live set empties the cache.
func TestCacheRoundTrip(t *testing.T) {
	c := OpenCache(filepath.Join(t.TempDir(), ".lintcache"), "salt")
	key := c.Key("pkg", "internal/vfl", "abc123")
	if _, _, ok := c.Get(key); ok {
		t.Fatal("hit on an empty cache")
	}
	findings := []Finding{{
		Pos:  token.Position{Filename: "internal/vfl/client.go", Line: 7, Column: 2},
		Rule: "privflow",
		Msg:  "test finding",
		Path: []PathHop{
			{Func: "vfl.leak", Pos: token.Position{Filename: "internal/vfl/client.go", Line: 5}},
			{Func: "vfl.Handler", Pos: token.Position{Filename: "internal/vfl/wireserver.go", Line: 9}},
		},
	}}
	if err := c.Put(key, findings, Stats{"shapeflow.ops_proved": 7}); err != nil {
		t.Fatal(err)
	}
	got, stats, ok := c.Get(key)
	if !ok {
		t.Fatal("miss right after Put")
	}
	// PathHop slices make Finding non-comparable; compare rendered forms.
	if len(got) != 1 || got[0].String() != findings[0].String() || got[0].PathString() != findings[0].PathString() {
		t.Fatalf("round-trip mismatch: got %+v, want %+v", got, findings)
	}
	if stats["shapeflow.ops_proved"] != 7 {
		t.Errorf("stats did not round-trip: %v", stats)
	}
	if c.Key("pkg", "internal/vfl", "abc123") != key {
		t.Error("Key is not deterministic")
	}
	other := OpenCache(c.dir, "othersalt")
	if other.Key("pkg", "internal/vfl", "abc123") == key {
		t.Error("different salts produced the same key")
	}
	c.Prune(map[string]bool{})
	if _, _, ok := c.Get(key); ok {
		t.Error("entry survived a prune that kept nothing")
	}
}
