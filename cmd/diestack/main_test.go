package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"diestack/internal/core"
)

// TestRequestMatchesStackdBody checks that a command line builds the
// request a stackd body of the same fields decodes to: equal canonical
// bytes, so equal cache keys.
func TestRequestMatchesStackdBody(t *testing.T) {
	for _, tc := range []struct {
		args []string
		body string
	}{
		{
			[]string{"fig5", "-seed", "1", "-scale", "0.05", "-benchmarks", `["gauss"]`,
				"-faults", `{"seed":3,"uncorrectable_per_m":100,"dead_banks":[0,1]}`},
			`{"spec":{"seed":1,"scale":0.05},"params":{"benchmarks":["gauss"],"faults":{"seed":3,"uncorrectable_per_m":100,"dead_banks":[0,1]}}}`,
		},
		{
			[]string{"table4", "-seed", "1", "-instructions", "2000"},
			`{"spec":{"seed":1},"params":{"instructions":2000}}`,
		},
		{
			[]string{"managed-logic-thermal", "-variant", "3d", "-grid", "16", "-tmax_c", "95", "-steps", "20",
				"-hysteresis_c", "4", "-faults", `{"seed":3,"sensor_noise_c":2}`},
			`{"spec":{"grid":16},"params":{"variant":"3d","tmax_c":95,"steps":20,"hysteresis_c":4,"faults":{"seed":3,"sensor_noise_c":2}}}`,
		},
		{
			[]string{"campaign", "-benchmarks", `["gauss"]`, "-seed", "1", "-scale", "0.05", "-grid", "16", "-jobs", "2"},
			`{"spec":{"seed":1,"scale":0.05,"grid":16},"params":{"benchmarks":["gauss"]}}`,
		},
		{[]string{"fig8"}, `{}`},
	} {
		t.Run(tc.args[0], func(t *testing.T) {
			_, inv, err := parse(tc.args, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			e, _ := core.ExperimentByName(tc.args[0])
			got, err := e.EncodeRequest(inv.req)
			if err != nil {
				t.Fatal(err)
			}
			req, err := e.DecodeRequest([]byte(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.EncodeRequest(req)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("command line encodes to\n%s\nthe stackd body to\n%s", got, want)
			}
		})
	}
}

// TestRefusedAtDecode checks that the decoder's bounds and name checks
// refuse a command line before any run: diestack exits 2 on each.
func TestRefusedAtDecode(t *testing.T) {
	for _, args := range [][]string{
		{"fig6", "-grid", "100000"},
		{"fig5", "-scale", "1e12"},
		{"memory-thermal-map", "-capacity_mb", "7"},
		{"managed-logic-thermal", "-hysteresis_c", "95"},
		{"fig5", "-benchmarks", `["gauss","gauss"]`},
		{"fig5", "-n", "1000"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if _, _, err := parse(args, io.Discard); err == nil {
				t.Error("accepted")
			}
		})
	}
}

// TestCommandsNameExperiments checks that every command that builds a
// request names a catalog experiment.
func TestCommandsNameExperiments(t *testing.T) {
	for name, c := range commands {
		if _, ok := core.ExperimentByName(c.experiment); c.experiment != "" && !ok {
			t.Errorf("%s: no experiment %q", name, c.experiment)
		}
	}
}
