// Command rwlint is routerwatch's determinism lint suite: a multichecker
// running the seven analyzers of internal/analysis/suite — globalrand,
// hotpathalloc, walltime, mapyield and nilinstrument per package, then the
// interprocedural call-graph analyzers envpurity and errsink — that
// machine-enforce the invariants the parallel trial runner's bitwise
// determinism rests on.
//
//	rwlint [-only a,b] [-list] [-timing] [-json report.json] [packages]
//
// With no arguments (or "./..."), the whole module is analyzed. Exit
// status: 0 clean, 1 diagnostics reported, 2 internal error. -json writes
// a machine-readable report (findings plus per-analyzer wall time) even
// when findings make the exit status nonzero, so CI can always upload it.
// The analyzer catalogue, the invariants behind it, and the allowlists are
// documented in DESIGN.md "Static analysis" and "Interprocedural
// analysis".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"routerwatch/internal/analysis"
	"routerwatch/internal/analysis/driver"
	"routerwatch/internal/analysis/load"
	"routerwatch/internal/analysis/suite"
)

// report is the -json output shape.
type report struct {
	Module    string           `json:"module"`
	Packages  int              `json:"packages"`
	LoadMs    int64            `json:"load_ms"`
	Analyzers []analyzerReport `json:"analyzers"`
	Findings  []findingReport  `json:"findings"`
	Total     int              `json:"total_findings"`
}

type analyzerReport struct {
	Name     string `json:"name"`
	Findings int    `json:"findings"`
	Ms       int64  `json:"ms"`
}

type findingReport struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	timing := flag.Bool("timing", false, "print per-analyzer wall time to stderr")
	jsonPath := flag.String("json", "", "write a JSON report (findings + timings) to this path")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: rwlint [flags] [packages]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nanalyzers:\n")
		for _, a := range suite.Analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range suite.Analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := suite.Analyzers
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range suite.Analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a := byName[strings.TrimSpace(name)]
			if a == nil {
				fmt.Fprintf(os.Stderr, "rwlint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rwlint: %v\n", err)
		os.Exit(2)
	}
	l := load.New(load.Config{Dir: root, Module: "routerwatch"})

	loadStart := time.Now()
	var pkgs []*load.Package
	args := flag.Args()
	if len(args) == 0 || (len(args) == 1 && (args[0] == "./..." || args[0] == "...")) {
		pkgs, err = l.LoadAll()
	} else {
		paths := make([]string, len(args))
		for i, a := range args {
			paths[i] = importPath(a)
		}
		pkgs, err = l.Load(paths...)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rwlint: %v\n", err)
		os.Exit(2)
	}
	loadMs := time.Since(loadStart).Milliseconds()

	// One session across the per-analyzer runs: module analyzers share the
	// cached call graph, so timing them individually stays honest (the
	// first one pays graph construction, the rest measure only their own
	// sweep — the JSON makes that split visible).
	session := driver.NewSession(l, pkgs)
	rep := report{Module: "routerwatch", Packages: len(pkgs), LoadMs: loadMs,
		Findings: []findingReport{}}
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		start := time.Now()
		ds, err := session.Run([]*analysis.Analyzer{a})
		elapsed := time.Since(start).Milliseconds()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rwlint: %v\n", err)
			os.Exit(2)
		}
		rep.Analyzers = append(rep.Analyzers, analyzerReport{Name: a.Name, Findings: len(ds), Ms: elapsed})
		if *timing {
			fmt.Fprintf(os.Stderr, "rwlint: timing: %-14s %4dms  %d finding(s)\n", a.Name, elapsed, len(ds))
		}
		diags = append(diags, ds...)
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })

	for _, d := range diags {
		fmt.Println(driver.Format(l.Fset, d))
		pos := l.Fset.Position(d.Pos)
		rep.Findings = append(rep.Findings, findingReport{
			File: relTo(root, pos.Filename), Line: pos.Line, Col: pos.Column,
			Analyzer: d.Category, Message: d.Message,
		})
	}
	rep.Total = len(diags)

	if *jsonPath != "" {
		if err := writeReport(*jsonPath, &rep); err != nil {
			fmt.Fprintf(os.Stderr, "rwlint: %v\n", err)
			os.Exit(2)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "rwlint: %d finding(s) from %d analyzer(s) across %d package(s) (load %dms)\n",
			len(diags), countReporting(rep.Analyzers), len(pkgs), loadMs)
		os.Exit(1)
	}
}

func countReporting(ars []analyzerReport) int {
	n := 0
	for _, ar := range ars {
		if ar.Findings > 0 {
			n++
		}
	}
	return n
}

// writeReport marshals the JSON report, failing loudly on any I/O error —
// a half-written report is worse than none.
func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// relTo renders a findings path relative to the module root when possible.
func relTo(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return path
}

// importPath normalizes a command-line package argument ("./internal/sim",
// "internal/sim", "routerwatch/internal/sim") to an import path.
func importPath(arg string) string {
	arg = strings.TrimSuffix(filepath.ToSlash(arg), "/")
	arg = strings.TrimPrefix(arg, "./")
	if arg == "." || arg == "" {
		return "routerwatch"
	}
	if arg == "routerwatch" || strings.HasPrefix(arg, "routerwatch/") {
		return arg
	}
	return "routerwatch/" + arg
}

// moduleRoot finds the directory holding go.mod, starting from the
// working directory — so rwlint works from any subdirectory of the repo.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory; run from inside the module")
		}
		dir = parent
	}
}
