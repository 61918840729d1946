package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks the module's packages from source with
// no toolchain dependency beyond the standard library: module-internal
// imports are resolved from the loader's own cache (packages are checked
// in dependency order) and standard-library imports through go/importer
// (compiler export data when available, falling back to type-checking
// the stdlib from GOROOT source).
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	parsed  map[string]*parsedPkg
	typed   map[string]*Package
	loading map[string]bool
	stdGC   types.Importer
	stdSrc  types.Importer
	known   []string // check names for annotation validation
}

type parsedPkg struct {
	path  string
	dir   string
	files []*ast.File
}

// NewLoader creates a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	return newLoader(root, modPath), nil
}

func newLoader(root, modPath string) *Loader {
	fset := token.NewFileSet()
	var names []string
	for _, c := range Checks() {
		names = append(names, c.Name)
	}
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		parsed:     map[string]*parsedPkg{},
		typed:      map[string]*Package{},
		loading:    map[string]bool{},
		stdGC:      importer.ForCompiler(fset, "gc", nil),
		stdSrc:     importer.ForCompiler(fset, "source", nil),
		known:      names,
	}
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
	}
}

// LoadAll discovers, parses and type-checks every package of the module
// (skipping testdata and hidden directories, and _test.go files — test
// files are exempt from the invariants by design). The returned packages
// are sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	if err := l.discover(); err != nil {
		return nil, err
	}
	var paths []string
	for p := range l.parsed {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// discover walks the module tree and parses every candidate package.
func (l *Loader) discover() error {
	return filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(l.ModuleRoot, path)
		if err != nil {
			return err
		}
		importPath := l.ModulePath
		if rel != "." {
			importPath = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.parseDir(path, importPath)
		if err != nil {
			return err
		}
		if pkg != nil {
			l.parsed[importPath] = pkg
		}
		return nil
	})
}

// parseDir parses the non-test Go files of one directory; nil when the
// directory holds no buildable Go files.
func (l *Loader) parseDir(dir, importPath string) (*parsedPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	return &parsedPkg{path: importPath, dir: dir, files: files}, nil
}

// load type-checks one parsed package, loading its module-internal
// dependencies first.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.typed[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	src, ok := l.parsed[path]
	if !ok {
		return nil, fmt.Errorf("lint: package %s not found in module %s", path, l.ModulePath)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	// Resolve the imports before type-checking so the importer below can
	// serve them from the cache.
	for _, f := range src.files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if l.internal(p) {
				if _, err := l.load(p); err != nil {
					return nil, err
				}
			}
		}
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, src.files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:  path,
		Fset:  l.Fset,
		Files: src.files,
		Types: tpkg,
		Info:  info,
		Notes: ParseNotes(l.Fset, src.files, l.known),
	}
	l.typed[path] = pkg
	return pkg, nil
}

func (l *Loader) internal(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// loaderImporter adapts the loader to types.Importer: module-internal
// packages from the cache, the standard library via export data with a
// from-source fallback.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.internal(path) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if pkg, err := l.stdGC.Import(path); err == nil {
		return pkg, nil
	}
	return l.stdSrc.Import(path)
}

// LoadFixture parses and type-checks a single directory as a standalone
// package under the given import path — the golden-test entry point for
// the testdata fixture packages (which import only the standard
// library).
func LoadFixture(dir, importPath string) (*Package, error) {
	l := newLoader(dir, importPath)
	src, err := l.parseDir(dir, importPath)
	if err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	l.parsed[importPath] = src
	return l.load(importPath)
}
