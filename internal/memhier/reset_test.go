package memhier

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"diestack/internal/fault"
	"diestack/internal/obs"
	"diestack/internal/trace"
)

// TestResetMatchesNew checks that a simulator that replayed one trace
// and was Reset replays a second trace exactly as a new simulator
// does: the same Result and the same published registry, through
// Replay and through Run. The machines are the four Figure 5 configs
// and a 32 MB stacked DRAM with correctable and uncorrectable ECC,
// dead banks and degraded vias, so every piece of state Reset clears
// — L1s, L2 tags, bank rows and busy times, the bus, the injector's
// draw counters and the latency histogram — shapes the second replay.
// Reset allocates nothing.
func TestResetMatchesNew(t *testing.T) {
	ctx := context.Background()
	recsA := wrappingTrace(5000)
	recsB := make([]trace.Record, 20_000)
	src := &mixedStream{}
	for i := range recsB {
		recsB[i], _ = src.Next()
	}
	faulty := StackedDRAMConfig(32)
	faulty.Faults = replayFaults
	for _, cfg := range append(figure5Configs(t, 2, fault.Config{}), faulty) {
		name := fmt.Sprintf("%dMB", cfg.L2.SizeBytes>>20)
		if cfg.Faults.Enabled() {
			name += "/faults"
		}
		t.Run(name, func(t *testing.T) {
			lgA, err := FilterL1(ctx, cfg, trace.NewSliceStream(recsA), nil)
			if err != nil {
				t.Fatal(err)
			}
			lgB, err := FilterL1(ctx, cfg, trace.NewSliceStream(recsB), nil)
			if err != nil {
				t.Fatal(err)
			}
			fresh := obs.NewRegistry()
			want, err := mustSim(t, cfg).Replay(ctx, lgB, fresh)
			if err != nil {
				t.Fatal(err)
			}
			sim := mustSim(t, cfg)
			if _, err := sim.Replay(ctx, lgA, nil); err != nil {
				t.Fatal(err)
			}
			sim.Reset()
			reused := obs.NewRegistry()
			got, err := sim.Replay(ctx, lgB, reused)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("replay after Reset differs from a new simulator's:\nreset: %+v\nnew:   %+v", got, want)
			}
			if g, w := renderMetrics(reused), renderMetrics(fresh); g != w {
				t.Errorf("registry after Reset differs from a new simulator's:\nreset:\n%snew:\n%s", g, w)
			}
			if cfg.Faults.Enabled() && (want.Faults.Corrected == 0 || want.Faults.LinesPoisoned == 0 || want.DRAMCache.Remapped == 0) {
				t.Errorf("trace B reaches no ECC event or dead bank: %+v", want.Faults)
			}

			wantRun, err := mustSim(t, cfg).Run(ctx, trace.NewSliceStream(recsB), RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sim.Reset()
			if _, err := sim.Run(ctx, trace.NewSliceStream(recsA), RunOptions{}); err != nil {
				t.Fatal(err)
			}
			sim.Reset()
			gotRun, err := sim.Run(ctx, trace.NewSliceStream(recsB), RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRun, wantRun) {
				t.Errorf("Run after Reset differs from a new simulator's:\nreset: %+v\nnew:   %+v", gotRun, wantRun)
			}

			if n := testing.AllocsPerRun(10, sim.Reset); n != 0 {
				t.Errorf("Reset allocates %v times", n)
			}
		})
	}
}
