package diestack_test

import (
	"bufio"
	"bytes"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCLIGolden builds diestack and the five examples, and checks that
// each invocation in testdata/cli/cases prints byte-for-byte the
// recorded standard output, exits with the recorded code and, for a
// campaign, writes the recorded manifest. Refactors behind the front
// end must leave every byte in place. The thermal3d_sigterm subtest
// checks how a run stops on SIGTERM.
func TestCLIGolden(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	statModuleSources(t)
	bin := t.TempDir()
	for _, pkg := range []string{"cmd/diestack", "examples/dramcache", "examples/folded_cpu", "examples/quickstart", "examples/thermal_explore", "examples/tall_stack"} {
		out, err := exec.Command(gobin, "build", "-o", filepath.Join(bin, filepath.Base(pkg)), "./"+pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go build ./%s: %v\n%s", pkg, err, out)
		}
	}
	t.Run("thermal3d_sigterm", func(t *testing.T) { checkSigterm(t, bin) })

	f, err := os.Open(filepath.Join("testdata", "cli", "cases"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 3 {
			t.Fatalf("malformed case line %q", sc.Text())
		}
		name, binName, args := fields[0], fields[2], fields[3:]
		wantExit, err := strconv.Atoi(fields[1])
		if err != nil {
			t.Fatalf("case %s: exit code: %v", name, err)
		}
		n++
		t.Run(name, func(t *testing.T) {
			golden := filepath.Join("testdata", "cli", name)
			wantManifest, err := os.ReadFile(golden + ".manifest.json")
			if err != nil && !errors.Is(err, fs.ErrNotExist) {
				t.Fatal(err)
			}
			checkManifest := err == nil
			manifest := filepath.Join(t.TempDir(), "manifest.json")
			if checkManifest {
				args = append(args, "-manifest", manifest)
			}
			cmd := exec.Command(filepath.Join(bin, binName), args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			gotExit := 0
			if err := cmd.Run(); err != nil {
				var ee *exec.ExitError
				if !errors.As(err, &ee) {
					t.Fatal(err)
				}
				gotExit = ee.ExitCode()
			}
			if gotExit != wantExit {
				t.Errorf("exit code %d, want %d; stderr:\n%s", gotExit, wantExit, stderr.Bytes())
			}
			want, err := os.ReadFile(golden + ".stdout")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout differs from %s.stdout\ngot:\n%s\nwant:\n%s", golden, stdout.Bytes(), want)
			}
			if checkManifest {
				got, err := os.ReadFile(manifest)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantManifest) {
					t.Errorf("manifest differs from %s.manifest.json\ngot:\n%s", golden, got)
				}
			}
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no cases in testdata/cli/cases")
	}
}

// checkSigterm sends SIGTERM to a diestack DTM run from bin once its
// first periodic metrics snapshot is written. The run must stop through
// its error path: exit code 1, with the final snapshot as the file's
// last line.
func checkSigterm(t *testing.T, bin string) {
	if runtime.GOOS != "linux" {
		t.Skip("SIGTERM handling is checked on Linux only")
	}
	metrics := filepath.Join(t.TempDir(), "metrics.jsonl")
	cmd := exec.Command(filepath.Join(bin, "diestack"), "managed-logic-thermal", "-variant", "3d",
		"-grid", "32", "-tmax_c", "95", "-steps", "2000", "-hysteresis_c", "4", "-metrics-out", metrics)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if b, _ := os.ReadFile(metrics); bytes.IndexByte(b, '\n') >= 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no metrics snapshot within 30 s")
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var ee *exec.ExitError
	if err := cmd.Wait(); !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("after SIGTERM: %v, want exit status 1", err)
	}
	b, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if last := lines[len(lines)-1]; !bytes.Contains(last, []byte(`"final":true`)) {
		t.Errorf("last metrics line is not the final snapshot:\n%s", last)
	}
}

// statModuleSources stats every Go source diestack and the examples
// are built from. The binaries are compiled by a child go build, which go
// test's result cache cannot see; the stats tie the cached verdict to
// those files, so editing diestack, an example or a package only they
// import reruns this test.
func statModuleSources(t *testing.T) {
	t.Helper()
	for _, root := range []string{"cmd", "examples", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") {
				_, err = os.Stat(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
