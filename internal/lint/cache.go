// The on-disk analysis cache: one entry per (package, content, facts)
// state, holding the package's post-suppression diagnostics and its
// exported facts. A warm `make lint` re-analyzes only the packages whose
// files — or whose in-module dependencies' facts — changed; everything else
// is served from disk without even being parsed, so the whole seven-analyzer
// suite completes in seconds.
//
// Correctness of the key: an entry is addressed by a SHA-256 over
//
//   - a schema version (bumped whenever diagnostics, facts or analyzers
//     change shape),
//   - the analyzer set (names, severities, fact-type names),
//   - the package's import path and the content of each of its Go files,
//   - for every in-module dependency, that dependency's exported-fact bytes.
//
// File content (not mtime) keys the entry, so touching a file without
// changing it stays warm; a changed dependency invalidates dependents only
// when its exported facts changed, since facts are the only cross-package
// channel the analyzers have. Positions are stored relative to the module
// root so entries survive a checkout moving on disk.
package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
)

// cacheSchemaVersion invalidates every entry when the cached representation
// or any analyzer's behavior changes. Bump it on any analyzer change.
const cacheSchemaVersion = "dcsvet-cache-3"

// A Cache is a directory of serialized per-package analysis results.
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) the cache rooted at dir. An empty
// dir selects the default location: $DCSVET_CACHE if set, else
// <user cache dir>/dcsvet, else the OS temp directory.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		if env := os.Getenv("DCSVET_CACHE"); env != "" {
			dir = env
		} else if ucd, err := os.UserCacheDir(); err == nil {
			dir = filepath.Join(ucd, "dcsvet")
		} else {
			dir = filepath.Join(os.TempDir(), "dcsvet-cache")
		}
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("creating analysis cache at %s: %w", dir, err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// cacheEntry is the serialized analysis result of one package.
type cacheEntry struct {
	Version string       `json:"version"`
	Diags   []cachedDiag `json:"diags"`
	// Facts is the package's exported facts in the deterministic encoding
	// of factStore.encodePackageFacts.
	Facts json.RawMessage `json:"facts"`
}

// cachedDiag is a Diagnostic with its file path relative to the module
// root, so cache entries are position-stable across checkouts. The byte
// offset of the position is not preserved: file, line and column are the
// diagnostic's observable address (everything Diagnostic.String prints).
type cachedDiag struct {
	Analyzer string   `json:"analyzer"`
	Severity Severity `json:"severity"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Message  string   `json:"message"`
}

func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, key[:2], key[2:]+".json")
}

func (c *Cache) load(key string) (*cacheEntry, bool) {
	data, err := os.ReadFile(c.entryPath(key))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Version != cacheSchemaVersion {
		return nil, false
	}
	return &e, true
}

func (c *Cache) store(key string, e *cacheEntry) error {
	e.Version = cacheSchemaVersion
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	path := c.entryPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	// Write-then-rename so a crashed run never leaves a torn entry that a
	// later run would half-parse.
	tmp, err := os.CreateTemp(filepath.Dir(path), "entry-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// RunResult is the outcome of one cached driver run.
type RunResult struct {
	Diags []Diagnostic
	// CacheHits counts packages served from the cache; CacheMisses counts
	// packages analyzed fresh (every package, when no cache was supplied).
	CacheHits   int
	CacheMisses int
}

// Run is the primary driver entry point, shared by cmd/dcsvet and the
// repo-wide clean test: one `go list` load, analyzers over every matched
// package in dependency order, facts flowing across package boundaries,
// //lint:allow suppression applied — with per-package results served from
// cache when neither the package nor its dependencies' facts changed. A nil
// cache analyzes everything fresh.
func Run(dir string, patterns []string, analyzers []*Analyzer, cache *Cache) (*RunResult, error) {
	ml, err := listModule(dir, patterns)
	if err != nil {
		return nil, err
	}
	pkgs, err := ml.analysisTargets()
	if err != nil {
		return nil, err
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		absDir = dir
	}

	store := newFactStore()
	res := &RunResult{}
	analyzed := map[string]bool{} // in-run packages, for dep fact hashing
	for _, p := range pkgs {
		analyzed[p.ImportPath] = true
	}
	for _, p := range pkgs {
		var key string
		keyErr := errNoCache
		if cache != nil {
			key, keyErr = cache.packageKey(p, analyzers, store, analyzed)
		}
		if keyErr == nil {
			if e, ok := cache.load(key); ok {
				if err := store.decodePackageFacts(p.ImportPath, e.Facts, analyzers); err == nil {
					res.CacheHits++
					for _, d := range e.Diags {
						res.Diags = append(res.Diags, d.diagnostic(absDir))
					}
					continue
				}
			}
		}
		t, err := ml.checkPackage(p)
		if err != nil {
			return nil, err
		}
		diags, err := analyzeTarget(t, analyzers, store)
		if err != nil {
			return nil, err
		}
		res.CacheMisses++
		res.Diags = append(res.Diags, diags...)
		if keyErr == nil {
			facts, err := store.encodePackageFacts(p.ImportPath)
			if err != nil {
				return nil, err
			}
			e := &cacheEntry{Facts: facts}
			for _, d := range diags {
				e.Diags = append(e.Diags, newCachedDiag(d, absDir))
			}
			if err := cache.store(key, e); err != nil {
				return nil, fmt.Errorf("writing analysis cache: %w", err)
			}
		}
	}
	sortDiagnostics(res.Diags)
	return res, nil
}

// errNoCache marks a run (or package) whose results cannot be cached.
var errNoCache = fmt.Errorf("no cache")

// packageKey computes the content-addressed cache key of p. It depends on
// the analyzer set, p's file contents, and the exported facts of every
// in-run dependency of p (which, in dependency order, are final by the time
// p is processed).
func (c *Cache) packageKey(p *listPkg, analyzers []*Analyzer, store *factStore, analyzed map[string]bool) (string, error) {
	h := sha256.New()
	fmt.Fprintln(h, cacheSchemaVersion)
	for _, a := range analyzers {
		fmt.Fprintf(h, "analyzer %s %s", a.Name, a.severity())
		for _, ft := range a.FactTypes {
			fmt.Fprintf(h, " %s", factTypeName(ft))
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintln(h, "package", p.ImportPath)
	for _, name := range p.GoFiles {
		data, err := os.ReadFile(filepath.Join(p.Dir, name))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "file %s %d\n", name, len(data))
		h.Write(data)
	}
	deps := append([]string(nil), p.Deps...)
	sort.Strings(deps)
	for _, dep := range deps {
		if !analyzed[dep] {
			continue // out-of-run packages export no facts
		}
		facts, err := store.encodePackageFacts(dep)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "deps %s %d\n", dep, len(facts))
		h.Write(facts)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func newCachedDiag(d Diagnostic, root string) cachedDiag {
	file := d.Pos.Filename
	if rel, err := filepath.Rel(root, file); err == nil && filepath.IsLocal(rel) {
		file = rel
	}
	return cachedDiag{
		Analyzer: d.Analyzer,
		Severity: d.Severity,
		File:     filepath.ToSlash(file),
		Line:     d.Pos.Line,
		Col:      d.Pos.Column,
		Message:  d.Message,
	}
}

func (cd cachedDiag) diagnostic(root string) Diagnostic {
	file := filepath.FromSlash(cd.File)
	if !filepath.IsAbs(file) {
		file = filepath.Join(root, file)
	}
	return Diagnostic{
		Analyzer: cd.Analyzer,
		Severity: cd.Severity,
		Pos:      token.Position{Filename: file, Line: cd.Line, Column: cd.Col},
		Message:  cd.Message,
	}
}
