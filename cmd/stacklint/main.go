// Command stacklint runs the repository's static-analysis suite: the
// typed invariants in internal/lint (context-first APIs, simulation
// determinism, allocation-free hot paths, method-only observability
// access) plus the CFG/dataflow concurrency checks (lock-safety,
// goroutine joinability, atomic/plain access mixing, canon
// wire-surface stability) checked over the module source.
//
// Usage:
//
//	go run ./cmd/stacklint ./...
//	go run ./cmd/stacklint -json ./internal/... ./cmd/...
//	go run ./cmd/stacklint -workers 4 -timing ./...
//
// Packages are analyzed in parallel over a bounded worker pool; the
// output is byte-identical at any -workers value, so CI logs diff
// cleanly against local runs.
//
// Exit status:
//
//	0 — the tree is clean: no analyzer reported a finding
//	1 — at least one finding was reported
//	2 — the source tree failed to load or type-check (or bad usage)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"diestack/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array (machine-readable CI logs)")
	list := flag.Bool("list", false, "list the analyzers, their invariants, and fixture status, then exit")
	workers := flag.Int("workers", 0, "package-analysis worker bound (0 = GOMAXPROCS); output is identical at any value")
	timing := flag.Bool("timing", false, "report per-analyzer wall time to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: stacklint [-json] [-list] [-workers n] [-timing] [patterns ...]\n\npatterns default to ./... relative to the module root\n\nexit status: 0 clean, 1 findings, 2 load/type-check failure\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stacklint:", err)
		os.Exit(2)
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %-18s %s\n", a.Name, fixtureStatus(root, a.Name), a.Doc)
		}
		return
	}

	prog, err := lint.Load(root, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stacklint:", err)
		os.Exit(2)
	}
	diags, timings := lint.AnalyzeWith(prog, lint.Analyzers(), lint.AnalyzeOptions{
		Workers: *workers,
		Timing:  *timing,
	})

	if *timing {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "stacklint: %-16s %s\n", a.Name, timings[a.Name])
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "stacklint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "stacklint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// fixtureStatus reports whether the analyzer has a `// want`-checked
// fixture module under internal/lint/testdata — the self-test that
// fails if the analyzer goes quiet.
func fixtureStatus(root, name string) string {
	dir := filepath.Join(root, "internal", "lint", "testdata", name)
	if st, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil && !st.IsDir() {
		return "[fixture: yes]"
	}
	return "[fixture: MISSING]"
}

// moduleRoot walks up from the working directory to the nearest go.mod.
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
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
