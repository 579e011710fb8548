package lint

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestAnalyzeDeterministicAcrossWorkers runs the full suite over a
// multi-package fixture at several GOMAXPROCS values, and so several
// worker-pool sizes, and requires the rendered output to be
// byte-identical: the parallel schedule must never leak into the
// diagnostics.
func TestAnalyzeDeterministicAcrossWorkers(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "wirestable"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	render := func(procs int) string {
		runtime.GOMAXPROCS(procs)
		var sb strings.Builder
		for _, d := range Analyze(prog, Analyzers()) {
			sb.WriteString(d.String())
			sb.WriteString("\n")
		}
		return sb.String()
	}
	serial := render(1)
	if serial == "" {
		t.Fatal("fixture produced no diagnostics; the determinism check is vacuous")
	}
	for _, procs := range []int{2, 4, 8} {
		if got := render(procs); got != serial {
			t.Errorf("output at GOMAXPROCS %d differs from GOMAXPROCS 1:\n%s\nvs\n%s", procs, got, serial)
		}
	}
}
