// Command stacklint runs the repository's static-analysis suite: the
// typed invariants in internal/lint (context-first APIs, simulation
// determinism, canon wire-surface stability) checked over the module
// source.
//
// Usage:
//
//	go run ./cmd/stacklint ./...
//	go run ./cmd/stacklint -json ./internal/... ./cmd/...
//	go run ./cmd/stacklint -list
//
// Packages are analyzed in parallel over GOMAXPROCS workers; the
// output is byte-identical at any GOMAXPROCS, so CI logs diff cleanly
// against local runs.
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
	list := flag.Bool("list", false, "list the analyzers and their invariants, then exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: stacklint [-json] [-list] [patterns ...]\n\npatterns default to ./... relative to the module root\n\nexit status: 0 clean, 1 findings, 2 load/type-check failure\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stacklint:", err)
		os.Exit(2)
	}

	prog, err := lint.Load(root, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stacklint:", err)
		os.Exit(2)
	}
	diags := lint.Analyze(prog, lint.Analyzers())

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
