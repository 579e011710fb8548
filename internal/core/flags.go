package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"diestack/internal/obs"
	"diestack/internal/prof"
)

// CLIFlags groups the knobs every cmd shares — pprof output and the
// observability sinks — so each binary registers them once instead of
// redeclaring the same four flags. Register on the command's FlagSet
// before flag.Parse, then bracket main with Start/Stop:
//
//	cli := core.RegisterCLIFlags(flag.CommandLine)
//	flag.Parse()
//	if err := cli.Start(); err != nil { cli.Fatal(err) }
//	defer cli.Stop()
//	ctx, cancel := cli.Context(context.Background(), *timeout)
//	defer cancel()
//	... pass cli.Obs() into RunSpec / harness.Config ...
type CLIFlags struct {
	// CPUProfile / MemProfile are pprof output paths ("" = off).
	CPUProfile string
	MemProfile string
	// MetricsOut is the JSONL metrics snapshot file ("" = off).
	MetricsOut string
	// Progress enables the live one-line progress reporter on stderr.
	Progress bool

	reg         *obs.Registry
	exporter    *obs.Exporter
	progress    *obs.Progress
	metricsFile *os.File
	stopOnce    sync.Once
}

// RegisterCLIFlags registers the shared flags on fs and returns the
// holder.
func RegisterCLIFlags(fs *flag.FlagSet) *CLIFlags {
	f := &CLIFlags{}
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "append JSONL metric snapshots to this file (final summary on exit)")
	fs.BoolVar(&f.Progress, "progress", false, "print a live progress line to stderr")
	return f
}

// Start starts profiling and — when -metrics-out or -progress was
// given — creates the metrics registry with its exporter and progress
// reporter. Call Stop on every exit path (it is idempotent).
func (f *CLIFlags) Start() error {
	if err := prof.Start(f.CPUProfile, f.MemProfile); err != nil {
		return err
	}
	if f.MetricsOut == "" && !f.Progress {
		return nil
	}
	f.reg = obs.NewRegistry()
	preRegister(f.reg)
	if f.MetricsOut != "" {
		file, err := os.Create(f.MetricsOut)
		if err != nil {
			prof.Stop()
			return fmt.Errorf("creating -metrics-out file: %w", err)
		}
		f.metricsFile = file
		f.exporter = obs.NewExporter(f.reg, file, time.Second)
	}
	if f.Progress {
		f.progress = obs.NewProgress(f.reg, os.Stderr, 0)
	}
	return nil
}

// Obs returns the registry Start created, or nil when observability
// was not requested — the nil registry is a free no-op everywhere it
// is passed.
func (f *CLIFlags) Obs() *obs.Registry { return f.reg }

// Stop closes the progress reporter, flushes the final metrics
// snapshot, and stops profiling. Safe to call more than once and on
// paths where Start never ran.
func (f *CLIFlags) Stop() {
	f.stopOnce.Do(func() {
		if f.progress != nil {
			f.progress.Close()
		}
		if f.exporter != nil {
			if err := f.exporter.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			}
		}
		if f.metricsFile != nil {
			if err := f.metricsFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "metrics: closing -metrics-out: %v\n", err)
			}
		}
	})
	prof.Stop()
}

// Context derives the run's context from parent. An interrupt or
// SIGTERM cancels it, so a run stops at its next cancellation check and
// exits through Fatal, which flushes the final metrics snapshot; a
// positive timeout bounds it too. Call cancel when the run ends.
func (f *CLIFlags) Context(parent context.Context, timeout time.Duration) (ctx context.Context, cancel context.CancelFunc) {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancelTimeout := context.WithTimeout(ctx, timeout)
	return ctx, func() { cancelTimeout(); stop() }
}

// Exit stops f and exits the process with code.
func (f *CLIFlags) Exit(code int) {
	f.Stop()
	os.Exit(code)
}

// Fatal prints err on stderr after the command's name and exits 1
// through Exit.
func (f *CLIFlags) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	f.Exit(1)
}

// preRegister creates one representative instrument per substrate so
// every snapshot — including a campaign that never exercises DTM or
// fault injection — carries all five metric families with explicit
// zeros rather than omitting them.
func preRegister(reg *obs.Registry) {
	reg.Counter("memhier_records")
	reg.Counter("thermal_solves")
	reg.Counter("dtm_samples")
	reg.Counter("fault_ecc_checks")
	reg.Counter(obs.MetricJobsDone)
	reg.Gauge(obs.MetricJobsTotal)
	reg.Gauge(obs.MetricPeakC)
}
