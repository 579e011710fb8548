package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"diestack/internal/dtm"
	"diestack/internal/fault"
	"diestack/internal/obs"
	"diestack/internal/thermal"
)

// TestManagedThermalMetricsPin pins the dtm_* and fault_* instruments
// a managed-logic-thermal run leaves in its registry: dtm_* (with
// dtm_freq) once the controller is built, fault_* only with sensor
// injection on — also when the controller is never built — and their
// values.
func TestManagedThermalMetricsPin(t *testing.T) {
	noisy := fault.Config{Seed: 5, SensorNoiseC: 1.5, SensorOffsetC: -0.5}
	for _, tc := range []struct {
		name     string
		opt      LogicOption
		cfg      dtm.Config
		fc       fault.Config
		steps    int
		counters map[string]uint64
		gauges   map[string]float64
	}{
		{
			name: "noisy-sensor", opt: Logic3D, cfg: dtm.Config{TmaxC: 90, HysteresisC: 4}, fc: noisy, steps: 60,
			counters: map[string]uint64{
				"dtm_samples": 60, "dtm_throttle_steps": 13, "dtm_emergency_drops": 1,
				"dtm_release_steps": 20, "dtm_fallbacks": 0,
				"fault_ecc_checks": 0, "fault_ecc_corrected": 0, "fault_ecc_uncorrectable": 0,
				"fault_lines_poisoned": 0, "fault_refetches": 0, "fault_unrecovered": 0,
				"fault_sensor_reads": 60,
			},
			gauges: map[string]float64{"dtm_freq": 0.9000000000000004},
		},
		{
			name: "noisy-sensor-fallback", opt: Logic3D, cfg: dtm.Config{TmaxC: 45, RunawaySamples: 4}, fc: noisy, steps: 30,
			counters: map[string]uint64{
				"dtm_samples": 30, "dtm_throttle_steps": 0, "dtm_emergency_drops": 1,
				"dtm_release_steps": 0, "dtm_fallbacks": 1,
				"fault_ecc_checks": 0, "fault_ecc_corrected": 0, "fault_ecc_uncorrectable": 0,
				"fault_lines_poisoned": 0, "fault_refetches": 0, "fault_unrecovered": 0,
				"fault_sensor_reads": 30,
			},
			gauges: map[string]float64{"dtm_freq": 0.5},
		},
		{
			name: "ideal-sensor", opt: Logic3D, cfg: dtm.Config{TmaxC: 90, HysteresisC: 4}, steps: 60,
			counters: map[string]uint64{
				"dtm_samples": 60, "dtm_throttle_steps": 4, "dtm_emergency_drops": 0,
				"dtm_release_steps": 2, "dtm_fallbacks": 0,
			},
			gauges: map[string]float64{"dtm_freq": 0.8999999999999999},
		},
		{
			name: "no-controller", opt: Logic3D, cfg: dtm.Config{TmaxC: -1}, fc: noisy, steps: 60,
			counters: map[string]uint64{
				"fault_ecc_checks": 0, "fault_ecc_corrected": 0, "fault_ecc_uncorrectable": 0,
				"fault_lines_poisoned": 0, "fault_refetches": 0, "fault_unrecovered": 0,
				"fault_sensor_reads": 0,
			},
			gauges: map[string]float64{},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			_, err := RunManagedLogicThermal(context.Background(), RunSpec{Grid: dtmGrid, Obs: reg}, tc.opt,
				tc.cfg, tc.fc, thermal.TransientOptions{Dt: 0.25, Steps: tc.steps})
			if (err != nil) != (tc.cfg.TmaxC <= 0) {
				t.Fatalf("run returned %v", err)
			}
			snap := reg.Snapshot(false)
			counters, gauges := map[string]uint64{}, map[string]float64{}
			for name, v := range snap.Counters {
				if strings.HasPrefix(name, "dtm_") || strings.HasPrefix(name, "fault_") {
					counters[name] = v
				}
			}
			for name, v := range snap.Gauges {
				if strings.HasPrefix(name, "dtm_") {
					gauges[name] = v
				}
			}
			if !reflect.DeepEqual(counters, tc.counters) {
				t.Errorf("counters %#v\nwant %#v", counters, tc.counters)
			}
			if !reflect.DeepEqual(gauges, tc.gauges) {
				t.Errorf("gauges %#v\nwant %#v", gauges, tc.gauges)
			}
		})
	}
}
