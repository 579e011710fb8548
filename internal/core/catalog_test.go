package core

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"

	"diestack/internal/canon"
)

// TestCatalogCoversEveryRunFunction parses the package source and
// asserts that every exported Run* function is reachable through some
// catalog entry: adding a new experiment without registering it is a
// test failure, not a silent gap in the service surface.
func TestCatalogCoversEveryRunFunction(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil {
					continue
				}
				if strings.HasPrefix(fd.Name.Name, "Run") && ast.IsExported(fd.Name.Name) {
					declared[fd.Name.Name] = true
				}
			}
		}
	}
	if len(declared) < 10 {
		t.Fatalf("parsed only %d Run* functions; parsing is broken", len(declared))
	}

	registered := map[string]bool{
		// The dispatcher itself is the entry point, not an experiment.
		"RunExperiment": true,
	}
	for _, e := range Experiments() {
		for _, fn := range e.fn {
			registered[fn] = true
		}
	}
	for fn := range declared {
		if !registered[fn] {
			t.Errorf("exported %s is not reachable from any catalog experiment", fn)
		}
	}
	// And the inverse: fn lists must not drift from the source.
	for fn := range registered {
		if fn != "RunExperiment" && fn != "CampaignJobs" && fn != "Figure6Maps" && !declared[fn] {
			t.Errorf("catalog claims %s but no such function is declared", fn)
		}
	}
}

func TestCatalogNamesUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.Name == "" || e.Doc == "" || e.Runner == nil {
			t.Errorf("experiment %+v missing name, doc, or runner", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
		got, ok := ExperimentByName(e.Name)
		if !ok || got.Name != e.Name {
			t.Errorf("ExperimentByName(%q) failed", e.Name)
		}
	}
	if _, ok := ExperimentByName("fig99"); ok {
		t.Error("unknown name resolved")
	}
	if _, err := RunExperiment(context.Background(), "fig99", ExperimentRequest{}); err == nil {
		t.Error("RunExperiment accepted an unknown name")
	}
}

func TestParamsSchema(t *testing.T) {
	e, _ := ExperimentByName("memory-perf")
	schema := e.ParamsSchema()
	want := map[string]string{
		"capacity_mb": "number",
		"benchmark":   "string",
		"faults":      "object",
	}
	if !reflect.DeepEqual(schema, want) {
		t.Errorf("memory-perf schema = %v, want %v", schema, want)
	}
	fig5, _ := ExperimentByName("fig5")
	want = map[string]string{
		"benchmarks": "array",
		"faults":     "object",
	}
	if schema := fig5.ParamsSchema(); !reflect.DeepEqual(schema, want) {
		t.Errorf("fig5 schema = %v, want %v", schema, want)
	}
	fig8, _ := ExperimentByName("fig8")
	if fig8.ParamsSchema() != nil {
		t.Error("parameterless experiment reported a schema")
	}
}

// TestEncodeRequestCanonical pins the property stackd's cache depends
// on: semantically equal requests encode to equal bytes, whether
// defaults are spelled out or omitted.
func TestEncodeRequestCanonical(t *testing.T) {
	e, _ := ExperimentByName("memory-perf")

	bare, err := e.EncodeRequest(ExperimentRequest{Spec: RunSpec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := e.EncodeRequest(ExperimentRequest{
		Spec:   RunSpec{Seed: 1, Grid: 0},
		Params: &MemoryPerfParams{CapacityMB: 0, Benchmark: ""},
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(bare) != string(explicit) {
		t.Fatalf("explicit defaults changed the encoding:\n%s\n%s", bare, explicit)
	}
	if canon.HashBytes(bare) != canon.HashBytes(explicit) {
		t.Fatal("cache keys differ for equal requests")
	}
	if want := `{"experiment":"memory-perf","spec":{"seed":1}}`; string(bare) != want {
		t.Fatalf("canonical form = %s, want %s", bare, want)
	}

	// Decode → re-encode canonicalizes a sprawling hand-written body.
	req, err := e.DecodeRequest([]byte(`{"spec":{"seed":1,"grid":0},"params":{"benchmark":"","capacity_mb":0}}`))
	if err != nil {
		t.Fatal(err)
	}
	re, err := e.EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(bare) {
		t.Fatalf("decode/re-encode not canonical: %s vs %s", re, bare)
	}

	// Non-default spec and params survive the round trip.
	full := ExperimentRequest{
		Spec:   RunSpec{Seed: 2, Grid: 16},
		Params: &MemoryPerfParams{CapacityMB: 32, Benchmark: "pcg"},
	}
	raw, err := e.EncodeRequest(full)
	if err != nil {
		t.Fatal(err)
	}
	back, err := e.DecodeRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, full) {
		t.Fatalf("round trip mutated the request:\nin:  %+v\nout: %+v", full, back)
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	e, _ := ExperimentByName("memory-perf")
	if _, err := e.DecodeRequest([]byte(`{"spec":{"seed":1},"leases":true}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
	if _, err := e.DecodeRequest([]byte(`{"params":{"capacity_gb":1}}`)); err == nil {
		t.Error("unknown params field accepted")
	}
	if _, err := e.DecodeRequest([]byte(`{"experiment":"fig5"}`)); err == nil {
		t.Error("mismatched experiment name accepted")
	}
	// The retired solver knobs are unknown fields now, rejected like
	// any other rather than silently ignored.
	for _, legacy := range []string{`{"spec":{"method":"multigrid"}}`, `{"spec":{"parallelism":2}}`} {
		if _, err := e.DecodeRequest([]byte(legacy)); err == nil {
			t.Errorf("legacy solver key accepted: %s", legacy)
		}
	}
	// Process-local spec fields never travel, and specs past the wire
	// bounds would allocate without limit.
	for _, bad := range []string{
		`{"spec":{"Obs":{}}}`,
		`{"spec":{"Workspaces":{}}}`,
		`{"spec":{"grid":3037000500}}`,
		`{"spec":{"grid":257}}`,
		`{"spec":{"grid":-1}}`,
		`{"spec":{"seed":1,"scale":1e12}}`,
		`{"spec":{"scale":4.5}}`,
		`{"spec":{"scale":-1}}`,
	} {
		if _, err := e.DecodeRequest([]byte(bad)); err == nil {
			t.Errorf("out-of-bounds or process-local spec accepted: %s", bad)
		}
	}
	if _, err := e.DecodeRequest([]byte(`{"spec":{"grid":256,"scale":4}}`)); err != nil {
		t.Errorf("spec at the wire bounds rejected: %v", err)
	}
	// A campaign request's canonical bytes are stackd's cache-key input.
	// No harness knob is part of it (a client's worker count would
	// split the cache over a field that cannot change the result), and
	// neither is anything from the retired version-2 campaign wire form.
	campaign, _ := ExperimentByName("campaign")
	for _, bad := range []string{
		`{"params":{"retries":200000}}`,
		`{"params":{"workers":4}}`,
		`{"spec":{"seed":1},"params":{"lease_style":"new"}}`,
		`{garbage`,
		`{"spec":{"seed":1,"scale":0.05,"grid":3037000500}}`,
		`{"spec":{"seed":1,"scale":1e12,"grid":16}}`,
		`{"spec":{"seed":1,"scale":0.5,"grid":64,"method":"multigrid"}}`,
		`{"spec":{"seed":1,"scale":0.5,"grid":64,"parallelism":2}}`,
		`{"version":2,"seed":3,"scale":0.5,"grid":64}`,
	} {
		if _, err := campaign.DecodeRequest([]byte(bad)); err == nil {
			t.Errorf("campaign request accepted: %s", bad)
		}
	}
	// Params that size the run are bounded like the spec: each of these
	// would allocate or loop without limit once it ran.
	manyKs := "[" + strings.Repeat("1,", 100000) + "1]"
	atBound := "[" + strings.Repeat("1,", 63) + "1]"
	for _, bad := range []struct{ exp, body string }{
		{"table4", `{"params":{"instructions":1000000000000}}`},
		{"managed-logic-thermal", `{"params":{"steps":4000000000}}`},
		{"fig3", `{"params":{"conductivities":` + manyKs + `}}`},
		// A non-positive point is refused at decode, not after the
		// solves of the points before it.
		{"fig3", `{"params":{"conductivities":` + strings.TrimSuffix(atBound, "1]") + `0]}}`},
		{"fig3", `{"params":{"conductivities":[-5]}}`},
	} {
		if _, err := mustExperiment(bad.exp).DecodeRequest([]byte(bad.body)); err == nil {
			t.Errorf("%s: out-of-bounds params accepted: %.80s", bad.exp, bad.body)
		}
	}
	for _, ok := range []struct{ exp, body string }{
		{"table4", `{"params":{"instructions":1000000}}`},
		{"managed-logic-thermal", `{"params":{"steps":10000}}`},
		{"fig3", `{"params":{"conductivities":` + atBound + `}}`},
	} {
		if _, err := mustExperiment(ok.exp).DecodeRequest([]byte(ok.body)); err != nil {
			t.Errorf("%s: params at the wire bounds rejected: %v", ok.exp, err)
		}
	}
	// Names a run would refuse are refused at decode too, so a client's
	// mistake never reaches a runner.
	for _, bad := range []struct{ exp, body string }{
		{"memory-perf", `{"params":{"benchmark":"nope"}}`},
		{"memory-perf", `{"params":{"capacity_mb":7}}`},
		{"memory-perf", `{"params":{"capacity_mb":32,"faults":{"tsv_fail_frac":1.5}}}`},
		{"memory-perf", `{"params":{"capacity_mb":32,"faults":{"dead_banks":[20]}}}`},
		{"fig5", `{"params":{"benchmarks":["nope"]}}`},
		{"fig5", `{"params":{"benchmarks":["gauss","gauss"]}}`},
		{"fig5", `{"params":{"benchmarks":[""]}}`},
		{"fig5", `{"params":{"faults":{"uncorrectable_per_m":-1}}}`},
		{"campaign", `{"params":{"benchmarks":["nope"]}}`},
		{"campaign", `{"params":{"benchmarks":["gauss","gauss"]}}`},
		{"memory-thermal", `{"params":{"capacity_mb":7}}`},
		{"logic-thermal", `{"params":{"variant":"4d"}}`},
		{"managed-logic-thermal", `{"params":{"variant":"4d"}}`},
		{"managed-logic-thermal", `{"params":{"faults":{"sensor_noise_c":-2}}}`},
		// DTM params the controller or the transient would refuse once
		// defaulted: decoded, each would fail as a 500 after a steady solve.
		{"managed-logic-thermal", `{"params":{"tmax_c":-5}}`},
		{"managed-logic-thermal", `{"params":{"hysteresis_c":-1}}`},
		{"managed-logic-thermal", `{"params":{"hysteresis_c":95}}`},
		{"managed-logic-thermal", `{"params":{"min_freq":2}}`},
		{"managed-logic-thermal", `{"params":{"dt_s":-0.25}}`},
		{"managed-logic-thermal", `{"params":{"steps":-1}}`},
		{"fig3", `{"params":{"layer":"tim"}}`},
	} {
		if _, err := mustExperiment(bad.exp).DecodeRequest([]byte(bad.body)); err == nil {
			t.Errorf("%s: request the run would refuse accepted: %s", bad.exp, bad.body)
		}
	}
	for _, ok := range []struct{ exp, body string }{
		{"memory-perf", `{"params":{"capacity_mb":4,"faults":{"dead_banks":[20]}}}`},
		{"fig5", `{"params":{"benchmarks":["svm","gauss"],"faults":{"seed":3,"dead_banks":[0,1]}}}`},
		{"campaign", `{"params":{"benchmarks":["gauss","pcg"]}}`},
		{"managed-logic-thermal", `{"params":{"variant":"3d-worstcase"}}`},
	} {
		if _, err := mustExperiment(ok.exp).DecodeRequest([]byte(ok.body)); err != nil {
			t.Errorf("%s: valid request rejected: %v", ok.exp, err)
		}
	}
	fig8, _ := ExperimentByName("fig8")
	if _, err := fig8.DecodeRequest([]byte(`{"params":{"x":1}}`)); err == nil {
		t.Error("params accepted by a parameterless experiment")
	}
	if _, err := fig8.EncodeRequest(ExperimentRequest{Params: &MemoryPerfParams{}}); err == nil {
		t.Error("EncodeRequest accepted params for a parameterless experiment")
	}
	if _, err := e.Run(context.Background(), ExperimentRequest{Params: &MemoryThermalParams{}}); err == nil {
		t.Error("Run accepted the wrong params type")
	}
}

// TestCatalogMatchesDirectCall pins the refactor's acceptance bar: the
// catalog path returns the same values as calling the core function
// directly.
func TestCatalogMatchesDirectCall(t *testing.T) {
	ctx := context.Background()
	spec := RunSpec{Grid: testGrid}
	res, err := RunExperiment(ctx, "memory-thermal", ExperimentRequest{
		Spec:   spec,
		Params: &MemoryThermalParams{CapacityMB: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunMemoryThermal(ctx, spec, Stacked32MB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Value, direct) {
		t.Fatalf("catalog diverges from direct call:\ncatalog: %+v\ndirect:  %+v", res.Value, direct)
	}
	if res.Experiment != "memory-thermal" {
		t.Errorf("result names %q", res.Experiment)
	}
}

// TestCampaignWirePin pins the exact canonical bytes and hash of a
// campaign request. The same bytes are stackd's cache-key input, so
// the pin makes any change to the canonical form a deliberate one.
func TestCampaignWirePin(t *testing.T) {
	e, _ := ExperimentByName("campaign")
	spec := RunSpec{Seed: 3, Scale: 0.5, Grid: 64}
	raw, err := e.EncodeRequest(ExperimentRequest{Spec: spec, Params: &CampaignParams{}})
	if err != nil {
		t.Fatal(err)
	}
	const wantBytes = `{"experiment":"campaign","spec":{"seed":3,"scale":0.5,"grid":64}}`
	if string(raw) != wantBytes {
		t.Fatalf("wire bytes drifted:\ngot  %s\nwant %s", raw, wantBytes)
	}
	const wantHash = "f04d903928ca79c9328f2d3a96b4b44e5423c1be56cd6e6f210772c0adc197c4"
	if h := canon.HashBytes(raw); h != wantHash {
		t.Fatalf("wire hash drifted: %s", h)
	}
	// The pinned bytes decode as stackd decodes a body, and their
	// re-encoding, stackd's cache key, hashes to the pinned hash.
	req, err := e.DecodeRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := e.EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if h := canon.HashBytes(canonical); h != wantHash {
		t.Fatalf("stackd cache key %s differs from the fleet hash %s", h, wantHash)
	}
	// The decoded payload expands to the in-process spec's job list.
	want, err := CampaignJobs(spec, CampaignParams{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CampaignJobs(req.Spec, *req.Params.(*CampaignParams))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded payload expands to %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Errorf("job %d: decoded payload names %q, want %q", i, got[i].Name, want[i].Name)
		}
	}
}
