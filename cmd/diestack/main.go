// Command diestack runs the paper's evaluation from the command line,
// one figure or table per invocation:
//
//	diestack <command> [flags]
//
// An experiment command runs one request of the experiment catalog, the
// request a POST of the same fields to stackd's /v1/experiments/<name>
// carries. Its flags are the request's fields, named as in the JSON
// body: -seed, -scale and -grid for the spec, then the experiment's
// params ("diestack <command> -h" lists them). A string field takes its
// bare value, any other field its JSON literal:
//
//	diestack fig5 -seed 1 -scale 0.05 -benchmarks '["gauss","pcg"]'
//	diestack fig5 -seed 1 -faults '{"uncorrectable_per_m":100,"dead_banks":[0,1]}'
//	diestack managed-logic-thermal -variant 3d -tmax_c 95 -hysteresis_c 4
//
// The flags are decoded as stackd decodes a body, with the catalog's
// defaults and bounds; a request the decoder refuses exits 2. A run
// that fails exits 1, and so does a managed-logic-thermal run whose
// verdict is not "Tmax held" and a campaign with a job that was not ok.
//
// Run "diestack" alone for the list of commands.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
	"time"

	"diestack/internal/core"
	"diestack/internal/harness"
	"diestack/internal/thermal"
	"diestack/internal/trace"
	"diestack/internal/workload"
)

// command is one diestack subcommand.
type command struct {
	// doc describes a command that is not a catalog experiment; an
	// experiment command shows the catalog's Doc.
	doc string
	// experiment names the catalog experiment whose request the flags
	// build, or is "" for a command that runs none.
	experiment string
	// fields lists the request fields taken as flags; nil takes every
	// spec and params field.
	fields []string
	// args is the number of positional arguments (file paths) taken.
	args int
	// flags registers the command's own flags beyond the shared ones.
	flags func(fs *flag.FlagSet, inv *invocation)
	run   func(ctx context.Context, inv *invocation) error
}

// invocation is one parsed command line.
type invocation struct {
	name    string
	req     core.ExperimentRequest
	args    []string
	cli     *core.CLIFlags
	timeout time.Duration

	png      string // fig6, memory-thermal-map
	jobs     int    // campaign
	manifest string // campaign
	out      string // trace-write
}

// errJobsFailed ends a campaign whose manifest records a job that was
// not ok; the manifest and the stderr summary say which.
var errJobsFailed = errors.New("campaign: not every job ok")

var commands = func() map[string]command {
	pngFlag := func(fs *flag.FlagSet, inv *invocation) {
		fs.StringVar(&inv.png, "png", "", "also write the thermal map to this PNG file")
	}
	cmds := map[string]command{
		"fig6":               {experiment: "fig6", flags: pngFlag, run: runExperiment},
		"memory-thermal-map": {experiment: "memory-thermal-map", flags: pngFlag, run: runExperiment},
		"campaign": {experiment: "campaign", run: runCampaign, flags: func(fs *flag.FlagSet, inv *invocation) {
			fs.IntVar(&inv.jobs, "jobs", 0, "worker-pool size, at most GOMAXPROCS (0 = GOMAXPROCS)")
			fs.StringVar(&inv.manifest, "manifest", "", "write the manifest JSON to this file (default stdout)")
		}},
		"table2": {doc: "print the thermal constants (Table 2)", run: render(core.RenderTable2)},
		"table3": {doc: "print the machine parameters (Table 3)", run: render(core.RenderTable3)},
		"fig7":   {doc: "print the four memory options' power budgets (Figure 7)", run: render(core.RenderFigure7)},
		"benchmarks": {doc: "list the RMS benchmarks", run: func(context.Context, *invocation) error {
			for _, b := range workload.All() {
				fits := "responds to stacked capacity"
				if b.FitsIn4MB {
					fits = "fits the 4MB baseline"
				}
				fmt.Printf("  %-8s %s (%s)\n", b.Name, b.Description, fits)
			}
			return nil
		}},
		// trace-write's flags are memory-perf's benchmark and spec
		// fields, decoded with memory-perf's defaults and bounds.
		"trace-write": {doc: "write one benchmark's trace to a binary trace file",
			experiment: "memory-perf", fields: []string{"seed", "scale", "benchmark"}, run: writeTrace,
			flags: func(fs *flag.FlagSet, inv *invocation) {
				fs.StringVar(&inv.out, "o", "", "output trace file (default <benchmark>.trace)")
			}},
		"trace-inspect": {doc: "summarize and validate the trace file FILE", args: 1, run: inspectTrace},
		// trace-replay's faults are fig5's, decoded and validated as
		// fig5's are.
		"trace-replay": {doc: "replay the trace file FILE on the four memory configurations",
			experiment: "fig5", fields: []string{"faults"}, args: 1, run: replayTrace},
	}
	for _, name := range []string{"fig3", "fig5", "fig8", "fig11", "table4", "table5",
		"wire-derivation", "power-derivation", "autofold", "managed-logic-thermal"} {
		cmds[name] = command{experiment: name, run: runExperiment}
	}
	return cmds
}()

func main() {
	c, inv, err := parse(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	cli := inv.cli
	if err := cli.Start(); err != nil {
		cli.Fatal(err)
	}
	defer cli.Stop()
	inv.req.Spec.Obs = cli.Obs()
	// A campaign's -timeout bounds each job, not the run.
	runTimeout := inv.timeout
	if inv.name == "campaign" {
		runTimeout = 0
	}
	ctx, cancel := cli.Context(context.Background(), runTimeout)
	defer cancel()
	switch err := c.run(ctx, inv); {
	case errors.Is(err, core.ErrTmaxNotHeld), errors.Is(err, errJobsFailed):
		cli.Exit(1)
	case err != nil:
		cli.Fatal(err)
	}
}

// parse reads a command line, without the program name. It returns an
// error, on which diestack exits 2, for an unknown command, a bad flag
// or argument count, and a request the catalog's decoder refuses; the
// error and any usage go to stderr.
func parse(args []string, stderr io.Writer) (command, *invocation, error) {
	fail := func(err error) (command, *invocation, error) {
		fmt.Fprintf(stderr, "diestack: %v\n", err)
		return command{}, nil, err
	}
	if len(args) == 0 {
		usage(stderr)
		return fail(errors.New("no command"))
	}
	name := args[0]
	c, ok := commands[name]
	if !ok {
		usage(stderr)
		return fail(fmt.Errorf("unknown command %q", name))
	}
	inv := &invocation{name: name}
	fs := flag.NewFlagSet("diestack "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	inv.cli = core.RegisterCLIFlags(fs)
	fs.DurationVar(&inv.timeout, "timeout", 0, "deadline for the whole run (campaign: for each job; 0 = none)")
	if c.flags != nil {
		c.flags(fs, inv)
	}
	e, _ := core.ExperimentByName(c.experiment)
	var body func() ([]byte, error)
	if c.experiment != "" {
		body = requestFlags(fs, e, c.fields)
	}
	if err := fs.Parse(args[1:]); err != nil {
		return command{}, nil, err // the flag package reported it
	}
	if inv.args = fs.Args(); len(inv.args) != c.args {
		return fail(fmt.Errorf("%s takes %d file argument(s), got %q", name, c.args, inv.args))
	}
	if body == nil {
		return c, inv, nil
	}
	b, err := body()
	if err == nil {
		inv.req, err = e.DecodeRequest(b)
	}
	if err != nil {
		return fail(fmt.Errorf("%s: %w", name, err))
	}
	return c, inv, nil
}

// requestFlags registers on fs one flag per request field of e, spec
// and params, named by its JSON field name; a non-nil only keeps just
// those fields. It returns the function that assembles the flags given
// into a request body. A string field's flag takes the bare string,
// every other kind its JSON literal.
func requestFlags(fs *flag.FlagSet, e core.Experiment, only []string) func() ([]byte, error) {
	spec, params := map[string]json.RawMessage{}, map[string]json.RawMessage{}
	register := func(into map[string]json.RawMessage, schema map[string]string) {
		for name, kind := range schema {
			if only != nil && !slices.Contains(only, name) {
				continue
			}
			fs.Func(name, fmt.Sprintf("request field %q (%s)", name, kind), func(v string) error {
				raw := json.RawMessage(v)
				if kind == "string" {
					raw, _ = json.Marshal(v)
				} else if !json.Valid(raw) {
					return fmt.Errorf("not a JSON %s", kind)
				}
				into[name] = raw
				return nil
			})
		}
	}
	register(spec, core.SpecSchema())
	register(params, e.ParamsSchema())
	return func() ([]byte, error) {
		body := map[string]any{"spec": spec}
		if len(params) > 0 {
			body["params"] = params
		}
		return json.Marshal(body)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: diestack <command> [flags]   (diestack <command> -h lists its flags)")
	names := make([]string, 0, len(commands))
	for name := range commands {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	for _, name := range names {
		doc := commands[name].doc
		if e, ok := core.ExperimentByName(name); ok {
			doc = e.Doc
		}
		fmt.Fprintf(tw, "  %s\t%s\n", name, doc)
	}
	tw.Flush()
}

// render runs a command that prints a constant table.
func render(f func(io.Writer) error) func(context.Context, *invocation) error {
	return func(context.Context, *invocation) error { return f(os.Stdout) }
}

// runExperiment runs the invocation's request and prints its value
// through the experiment's printer; with -png it first writes the
// thermal map.
func runExperiment(ctx context.Context, inv *invocation) error {
	res, runErr := core.RunExperiment(ctx, inv.name, inv.req)
	if inv.png != "" && runErr == nil {
		if err := writePNG(inv.png, res.Value); err != nil {
			return err
		}
	}
	return core.PrintResult(os.Stdout, inv.name, inv.req, res.Value, runErr)
}

// writePNG writes the temperature map of a fig6 or memory-thermal-map
// value to path.
func writePNG(path string, v any) error {
	m, ok := v.([][]float64)
	if r, fig6 := v.(core.Figure6Result); fig6 {
		m, ok = r.Temperature, true
	}
	if !ok {
		return fmt.Errorf("no thermal map in a %T", v)
	}
	err := writeFile(path, func(w io.Writer) error { return thermal.WritePNG(w, m, 8) })
	if err == nil {
		fmt.Printf("thermal map written to %s\n", path)
	}
	return err
}

// writeFile creates path and fills it through write, returning the
// first error of the write and the close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runCampaign runs the paper sweep as a supervised campaign with the
// -jobs and per-job -timeout settings, writes the manifest, and prints
// the outcome summary on stderr. Failed jobs do not abort the sweep;
// they are recorded with their cause.
func runCampaign(ctx context.Context, inv *invocation) error {
	cfg := harness.Config{
		Workers: inv.jobs,
		Timeout: inv.timeout,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "campaign: "+format+"\n", args...)
		},
	}
	m, err := core.RunCampaign(ctx, inv.req.Spec, *inv.req.Params.(*core.CampaignParams), cfg)
	if err != nil {
		return err
	}
	if inv.manifest == "" {
		err = m.WriteJSON(os.Stdout)
	} else {
		err = writeFile(inv.manifest, m.WriteJSON)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign: %d ok, %d failed, %d panicked, %d timeout, %d canceled\n",
		m.OK, m.Failed, m.Panicked, m.Timeout, m.Canceled)
	if m.OK != len(m.Jobs) {
		return errJobsFailed
	}
	return nil
}

// writeTrace writes the benchmark's trace at the request's seed and
// scale to the -o file.
func writeTrace(_ context.Context, inv *invocation) error {
	b := workload.All()[0] // memory-perf's default benchmark
	if name := inv.req.Params.(*core.MemoryPerfParams).Benchmark; name != "" {
		b, _ = workload.ByName(name)
	}
	path := inv.out
	if path == "" {
		path = b.Name + ".trace"
	}
	recs := b.Generate(inv.req.Spec.Seed, inv.req.Spec.Scale)
	err := writeFile(path, func(f io.Writer) error {
		w := trace.NewWriter(f)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				return err
			}
		}
		return w.Flush()
	})
	if err != nil {
		return err
	}
	m := workload.Summarize(recs)
	fmt.Printf("%s: %d records (%d loads, %d stores, %d ifetches, %d with deps), footprint %.2f MB -> %s\n",
		b.Name, len(recs), m.Loads, m.Stores, m.Ifetches, m.Deps,
		float64(workload.FootprintBytes(recs))/(1<<20), path)
	return nil
}

// readTrace decodes the whole trace file at path.
func readTrace(ctx context.Context, path string) ([]trace.Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return trace.Collect(ctx, trace.NewReader(bytes.NewReader(data)), 0)
}

func inspectTrace(ctx context.Context, inv *invocation) error {
	path := inv.args[0]
	recs, err := readTrace(ctx, path)
	if err != nil {
		return err
	}
	if err := trace.Validate(ctx, trace.NewSliceStream(recs)); err != nil {
		return fmt.Errorf("trace invalid: %w", err)
	}
	m := workload.Summarize(recs)
	refs := 0
	for _, r := range recs {
		refs += r.Accesses()
	}
	fmt.Printf("%s: %d records (%d references with repeats), %d loads / %d stores / %d ifetches, %d dependent\n",
		path, len(recs), refs, m.Loads, m.Stores, m.Ifetches, m.Deps)
	fmt.Printf("footprint: %.2f MB across regions %v\n",
		float64(workload.FootprintBytes(recs))/(1<<20), workload.Regions(recs))
	return nil
}

// replayTrace runs a trace file through the four memory configurations:
// the file is decoded once, and the Figure 5 sweep runs its records
// through the L1 front end once.
func replayTrace(ctx context.Context, inv *invocation) error {
	path := inv.args[0]
	fmt.Printf("replaying %s on the four configurations:\n", path)
	recs, err := readTrace(ctx, path)
	if err != nil {
		return err
	}
	fc := inv.req.Params.(*core.Fig5Params).Faults.Config()
	rows, err := core.ReplayTrace(ctx, inv.req.Spec, path, recs, fc)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	header := "capacity\tCPMA\tBW GB/s\ttraffic MB\trecords"
	if fc.Enabled() {
		header += "\tECC fix\tpoisoned\tremapped"
	}
	fmt.Fprintln(w, header)
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.2f\t%.1f\t%d",
			r.Option, r.CPMA, r.BandwidthGBs, float64(r.OffDieBytes)/(1<<20), len(recs))
		if fc.Enabled() {
			fmt.Fprintf(w, "\t%d\t%d\t%d",
				r.Faults.Corrected, r.Faults.LinesPoisoned, r.DRAMRemapped)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}
