// Package lint is the repo's custom static-analysis framework (qalint).
// It machine-checks the invariants the headline claims rest on — claims
// that are otherwise only guarded dynamically by tests and -benchmem
// numbers:
//
//   - determinism: sharded Monte-Carlo sweeps are bit-identical for any
//     worker count (PR 1). Unordered map iteration that feeds simulation
//     state or output, and global math/rand or time.Now seeding, would
//     silently break that.
//   - exhaustive: the gate-kind and Pauli enum switches dispatching the
//     thesis Tables 3.2–3.5 conjugation kernels must cover every declared
//     constant or terminate loudly, so adding a gate cannot fall through.
//   - hotpath: functions annotated //qa:hotpath (the CHP column-major
//     gate kernels and the framesim word-parallel propagate/decode loops)
//     must stay allocation-free, and so must every function they call
//     (one rule set binds both), statically pinning the 0 allocs/op
//     benchmark claims.
//   - floateq: probability and LER code must not compare floats with
//     == / != (use tolerances), except where //qa:allow float-eq marks a
//     deliberate exact comparison.
//
// The framework is pure stdlib (go/ast, go/parser, go/types), matching
// the repo's no-dependency rule. cmd/qalint is the driver.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned at file:line:column.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the diagnostic in the conventional compiler format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("repro/internal/chp")
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Notes carries the parsed //qa: annotations of every file.
	Notes *Notes
}

// Pass is the per-package context handed to a check's Run function.
// Prog is the module-wide view (call graph, cross-package function
// index) shared by every pass of one Run.
type Pass struct {
	Cfg  *Config
	Pkg  *Package
	Prog *Program
	diag *[]Diagnostic
}

// Reportf records a finding at pos unless a //qa:allow annotation for
// the check covers that line.
func (p *Pass) Reportf(check string, pos token.Pos, format string, args ...interface{}) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.Notes.Allowed(check, position) {
		return
	}
	*p.diag = append(*p.diag, Diagnostic{
		Pos:     position,
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf resolves the static type of an expression.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Check is one registered analysis.
type Check struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// registry holds the built-in checks in registration order.
var registry []*Check

func register(c *Check) *Check {
	registry = append(registry, c)
	return c
}

// Checks returns the registered checks sorted by name.
func Checks() []*Check {
	out := append([]*Check(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Config scopes the checks. The zero value plus Default() matches the
// repo's layout; tests override the scopes to point at fixtures.
type Config struct {
	// Enabled selects checks by name; empty means all registered checks.
	Enabled []string
	// SimPackages are import-path prefixes where the determinism check's
	// map-iteration rule applies (simulation state and result
	// aggregation live here).
	SimPackages []string
	// ClockPackages are import-path prefixes where time.Now is forbidden
	// (the simulation core; CLI drivers may time wall-clock progress).
	ClockPackages []string
	// EnumPackages are import paths whose named constant sets the
	// exhaustive check enforces switch coverage for.
	EnumPackages []string
	// SeedFuncs are the RNG-seeding call sites the seed-flow check
	// taints; nil means DefaultSeedFuncs().
	SeedFuncs []SeedFunc
}

// Default returns the repo configuration: every check, determinism over
// the whole module, clock discipline and enum enforcement over the
// simulation internals.
func Default() *Config {
	return &Config{
		SimPackages:   []string{"repro/"},
		ClockPackages: []string{"repro/internal/"},
		EnumPackages:  []string{"repro/internal/gates", "repro/internal/pauli"},
	}
}

func (c *Config) enabled(name string) bool {
	if len(c.Enabled) == 0 {
		return true
	}
	for _, n := range c.Enabled {
		if n == name {
			return true
		}
	}
	return false
}

func hasPrefix(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == strings.TrimSuffix(p, "/") || strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

// Run executes every enabled check over the packages and returns the
// findings sorted by position.
func Run(cfg *Config, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	prog := NewProgram(pkgs)
	for _, pkg := range pkgs {
		// Annotation parse errors are findings: a typo in a //qa:
		// directive must not silently disable enforcement.
		diags = append(diags, pkg.Notes.Errs...)
		for _, chk := range Checks() {
			if !cfg.enabled(chk.Name) {
				continue
			}
			chk.Run(&Pass{Cfg: cfg, Pkg: pkg, Prog: prog, diag: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Check < diags[j].Check
	})
	return diags
}
