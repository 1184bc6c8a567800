package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The findings cache lets repeat gtv-lint runs skip type-checking
// packages whose inputs did not change. Keys are derived from file
// contents (not mtimes) plus a salt covering everything that can change
// analyzer behavior, so a hit is exactly as trustworthy as a re-run:
//
//   - per-package entries, keyed by the package's own files and the keys
//     of its module-internal dependencies, hold the per-package analyzer
//     findings;
//   - one module entry, keyed over every package, holds the
//     module-analyzer (privflow) findings — any edit anywhere invalidates
//     it, which is the only sound choice for a whole-module analysis.
//
// On an unchanged tree every entry hits and the run does no parsing
// beyond import scanning and no type-checking at all.

// cacheVersion invalidates all entries when the on-disk format or the
// analysis semantics change incompatibly.
const cacheVersion = "1"

// ModuleIndex is a cheap (imports-only) scan of the module: file-content
// hashes and the module-internal import graph, enough to key the cache
// without type-checking anything.
type ModuleIndex struct {
	// Root is the absolute module root.
	Root string
	// ModulePath is the module path from go.mod.
	ModulePath string
	// Dirs lists the package directories relative to Root ("." for the
	// root package), sorted.
	Dirs []string

	ownHash map[string]string   // rel dir -> hash of the dir's own files
	imports map[string][]string // rel dir -> module-internal rel dirs
	depKey  map[string]string   // rel dir -> hash incl. transitive deps
	modKey  string
}

// BuildModuleIndex scans the module containing dir. It reads and hashes
// every non-test Go file and parses import clauses only.
func BuildModuleIndex(dir string) (*ModuleIndex, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := moduleDirs(root)
	if err != nil {
		return nil, err
	}
	ix := &ModuleIndex{
		Root:       root,
		ModulePath: modPath,
		ownHash:    make(map[string]string),
		imports:    make(map[string][]string),
		depKey:     make(map[string]string),
	}
	fset := token.NewFileSet()
	for _, d := range dirs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		ix.Dirs = append(ix.Dirs, rel)
		if err := ix.scanDir(fset, d, rel); err != nil {
			return nil, err
		}
	}
	sort.Strings(ix.Dirs)
	for _, rel := range ix.Dirs {
		ix.computeDepKey(rel, make(map[string]bool))
	}
	h := sha256.New()
	mustWrite(h, cacheVersion)
	for _, rel := range ix.Dirs {
		mustWrite(h, rel, ix.depKey[rel])
	}
	ix.modKey = hex.EncodeToString(h.Sum(nil))
	return ix, nil
}

// scanDir hashes one package directory's files and records its
// module-internal imports.
func (ix *ModuleIndex) scanDir(fset *token.FileSet, dir, rel string) error {
	names, err := sourceFiles(dir)
	if err != nil {
		return err
	}
	h := sha256.New()
	seen := make(map[string]bool)
	for _, name := range names {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		mustWrite(h, name, strconv.Itoa(len(data)))
		if _, err := h.Write(data); err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, data, parser.ImportsOnly)
		if err != nil {
			return fmt.Errorf("lint: scanning %s: %w", path, err)
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p != ix.ModulePath && !strings.HasPrefix(p, ix.ModulePath+"/") {
				continue
			}
			depRel := strings.TrimPrefix(strings.TrimPrefix(p, ix.ModulePath), "/")
			if depRel == "" {
				depRel = "."
			}
			if !seen[depRel] {
				seen[depRel] = true
				ix.imports[rel] = append(ix.imports[rel], depRel)
			}
		}
	}
	sort.Strings(ix.imports[rel])
	ix.ownHash[rel] = hex.EncodeToString(h.Sum(nil))
	return nil
}

// computeDepKey folds a package's own hash with its transitive
// module-internal dependency keys. visiting guards against import cycles
// (invalid Go, but the cache must not hang on them).
func (ix *ModuleIndex) computeDepKey(rel string, visiting map[string]bool) string {
	if k, ok := ix.depKey[rel]; ok {
		return k
	}
	if visiting[rel] {
		return ix.ownHash[rel]
	}
	visiting[rel] = true
	h := sha256.New()
	mustWrite(h, ix.ownHash[rel])
	for _, dep := range ix.imports[rel] {
		mustWrite(h, dep, ix.computeDepKey(dep, visiting))
	}
	k := hex.EncodeToString(h.Sum(nil))
	ix.depKey[rel] = k
	return k
}

// PackageKey returns the content+dependency hash of a package directory
// (relative to Root), or "" if the directory holds no module package.
func (ix *ModuleIndex) PackageKey(rel string) string { return ix.depKey[rel] }

// ModuleKey returns the whole-module hash.
func (ix *ModuleIndex) ModuleKey() string { return ix.modKey }

// CacheSalt hashes everything that changes analyzer behavior outside the
// analyzed package itself: the cache version and the analyzer
// implementation (the internal/lint and cmd/gtv-lint sources, which this
// module carries as ordinary packages). The rule selection is not part
// of the salt — entries are keyed per rule, so a partial -only run
// shares (and cannot poison) the full run's cache.
func CacheSalt(ix *ModuleIndex) string {
	h := sha256.New()
	mustWrite(h, cacheVersion)
	lintKey, cmdKey := ix.PackageKey("internal/lint"), ix.PackageKey("cmd/gtv-lint")
	if lintKey == "" || cmdKey == "" {
		// The analyzed module does not carry the analyzer sources (-root
		// points at a foreign module), so source keys cannot cover the
		// analysis semantics; key on the running binary instead, so a
		// rebuilt gtv-lint invalidates foreign caches too.
		lintKey = executableHash()
	}
	mustWrite(h, lintKey, cmdKey)
	return hex.EncodeToString(h.Sum(nil))
}

// executableHash hashes the running binary, memoized for the process.
var executableHash = sync.OnceValue(func() string {
	exe, err := os.Executable()
	if err != nil {
		return "no-executable:" + err.Error()
	}
	f, err := os.Open(exe)
	if err != nil {
		return "no-executable:" + err.Error()
	}
	//lint:ignore errdrop read-only binary, a Close failure cannot lose data
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		// Salt on the path+error: unstable beats silently stale.
		return "unhashable-executable:" + exe + ":" + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
})

// mustWrite hashes the given strings with length framing; writes to a
// sha256 hash cannot fail (and fmt is errdrop-exempt).
func mustWrite(w io.Writer, parts ...string) {
	for _, p := range parts {
		fmt.Fprintf(w, "%d:%s;", len(p), p)
	}
}

// Cache reads and writes findings entries under a directory
// (conventionally <module>/.lintcache).
type Cache struct {
	dir  string
	salt string
}

// OpenCache returns a cache rooted at dir with the given salt. The
// directory is created lazily on the first Put.
func OpenCache(dir, salt string) *Cache { return &Cache{dir: dir, salt: salt} }

// Key derives the entry key for the given parts under the cache salt.
func (c *Cache) Key(parts ...string) string {
	h := sha256.New()
	mustWrite(h, c.salt)
	mustWrite(h, parts...)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

type cacheEntry struct {
	Version  string
	Findings []Finding
	Stats    Stats `json:",omitempty"`
}

func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+".json") }

// Get returns the cached findings and stats for key, with ok reporting a
// hit. A corrupt or version-skewed entry is a miss.
func (c *Cache) Get(key string) ([]Finding, Stats, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Version != cacheVersion {
		return nil, nil, false
	}
	return e.Findings, e.Stats, true
}

// Put stores findings and stats under key. Findings must already be
// relativized to the module root so entries are stable across invocation
// directories.
func (c *Cache) Put(key string, findings []Finding, stats Stats) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(cacheEntry{Version: cacheVersion, Findings: findings, Stats: stats})
	if err != nil {
		return err
	}
	tmp := c.path(key) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, c.path(key))
}

// Prune removes entries whose key is not in live, bounding cache growth
// as packages and rule selections come and go.
func (c *Cache) Prune(live map[string]bool) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		key, ok := strings.CutSuffix(name, ".json")
		if !ok || live[key] {
			continue
		}
		//lint:ignore errdrop pruning is best-effort, a leftover entry is harmless
		_ = os.Remove(filepath.Join(c.dir, name))
	}
}
