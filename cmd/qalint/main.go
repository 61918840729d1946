// Command qalint is the repo's static analyzer: it enforces the
// invariants the headline claims depend on — deterministic sharded
// sweeps, exhaustive gate/Pauli enum switches, allocation-free
// //qa:hotpath kernels (one rule set for a kernel's body and, through
// the module call graph, every function it calls), configuration-derived
// RNG seeds, checked error returns and scheduling-independent
// worker-pool closures, plus tolerance-based float comparison — over
// every package of the module. See internal/lint for the checks and the
// //qa: annotation grammar.
//
// Usage:
//
//	qalint [-checks determinism,errcheck,…] [-json] [-list] [-dir dir] [./...]
//
// -json emits one machine-readable finding per line (JSON Lines:
// check/file/line/col/message, file paths module-root-relative) for CI
// artifacts and annotators. The repo carries no suppression list: a
// deliberate exception is a //qa:allow annotation at its line.
//
// The only supported pattern is the whole module (./..., the default):
// the checks are cross-package invariants, so partial runs would give a
// false sense of green. Exits 1 when findings are reported, 2 on
// loader/usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "list the registered checks and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON Lines (one object per finding)")
	dir := flag.String("dir", ".", "directory inside the module to analyze")
	flag.Usage = func() {
		//qa:allow errcheck usage text to stderr, nothing to do on failure
		fmt.Fprintf(flag.CommandLine.Output(), "usage: qalint [flags] [./...]\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, c := range lint.Checks() {
			fmt.Printf("%-12s %s\n", c.Name, c.Doc)
		}
		return
	}
	for _, arg := range flag.Args() {
		if arg != "./..." {
			fmt.Fprintf(os.Stderr, "qalint: unsupported pattern %q (the checks are module-wide; use ./...)\n", arg)
			os.Exit(2)
		}
	}

	cfg := lint.Default()
	if *checks != "" {
		cfg.Enabled = strings.Split(*checks, ",")
		known := map[string]bool{"qa": true}
		for _, c := range lint.Checks() {
			known[c.Name] = true
		}
		for _, name := range cfg.Enabled {
			if !known[name] {
				fmt.Fprintf(os.Stderr, "qalint: unknown check %q (see qalint -list)\n", name)
				os.Exit(2)
			}
		}
	}

	loader, err := lint.NewLoader(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qalint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "qalint:", err)
		os.Exit(2)
	}
	diags := lint.Run(cfg, pkgs)
	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, diags, loader.ModuleRoot); err != nil {
			fmt.Fprintln(os.Stderr, "qalint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "qalint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
