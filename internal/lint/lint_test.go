package lint

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestAnalyzerFixtures runs every analyzer against its testdata module
// and checks the diagnostics against the fixture's // want comments in
// both directions: nothing unexpected, nothing missing. It also
// requires the fixture modules and the registered analyzers to be the
// same set, so an analyzer dropped from Analyzers() fails here rather
// than going quiet.
func TestAnalyzerFixtures(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	var fixtures, names []string
	for _, e := range entries {
		if e.IsDir() {
			fixtures = append(fixtures, e.Name())
		}
	}
	for _, a := range Analyzers() {
		names = append(names, a.Name)
		t.Run(a.Name, func(t *testing.T) {
			CheckFixture(t, a, filepath.Join("testdata", a.Name))
		})
	}
	slices.Sort(names)
	if !slices.Equal(fixtures, names) {
		t.Errorf("testdata fixtures %v, registered analyzers %v: want the same set", fixtures, names)
	}
}

// TestRepoIsClean lints this repository with the full suite and
// requires zero diagnostics — the end-to-end gate that keeps verify.sh
// and CI honest. If this test fails, the tree violates one of its own
// invariants.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(root, "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	if len(prog.Packages) < 10 {
		t.Fatalf("suspiciously few packages loaded (%d); loader lost the tree", len(prog.Packages))
	}
	wantFree(t, prog)
}

// TestLoadSkipsFixtures ensures the loader never wanders into testdata:
// the fixtures violate the invariants on purpose.
func TestLoadSkipsFixtures(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(root, "./internal/lint/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range prog.Packages {
		if strings.Contains(pkg.Path, "testdata") {
			t.Errorf("loader descended into %s", pkg.Path)
		}
	}
}

// TestMatchPattern pins the pattern grammar the CLI exposes.
func TestMatchPattern(t *testing.T) {
	cases := []struct {
		rel, pat string
		want     bool
	}{
		{".", "./...", true},
		{"internal/thermal", "./...", true},
		{"internal/thermal", "./internal/...", true},
		{"internal", "./internal/...", true},
		{"cmd/diestack", "./internal/...", false},
		{"internal/thermal", "./internal/thermal", true},
		{"internal/thermal/sub", "./internal/thermal", false},
		{"internalx", "./internal/...", false},
	}
	for _, c := range cases {
		if got := matchPattern(c.rel, c.pat); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.rel, c.pat, got, c.want)
		}
	}
}
