package memhier

import (
	"context"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"diestack/internal/fault"
	"diestack/internal/obs"
	"diestack/internal/trace"
)

// figure5Configs returns the four Figure 5 machines — planar 4 MB,
// stacked 12 MB SRAM, stacked 32 and 64 MB DRAM — resized to the given
// core count, with fault injection fc.
func figure5Configs(t *testing.T, cores int, fc fault.Config) []Config {
	t.Helper()
	var cfgs []Config
	for _, mb := range []int{4, 12, 32, 64} {
		cfg, ok := ConfigByCapacity(mb)
		if !ok {
			t.Fatalf("no %d MB config", mb)
		}
		cfg.Cores = cores
		cfg.Faults = fc
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// replayFaults injects frequent correctable and uncorrectable ECC
// events, two dead banks and degraded vias on the stacked DRAM caches.
var replayFaults = fault.Config{
	Seed: 11, CorrectablePerMAccess: 30000, UncorrectablePerMAccess: 5000,
	DeadBanks: []int{1, 6}, TSVFailFrac: 0.25,
}

// adversarialTrace builds n records on four cores that stress the
// front end's dependency resolution and coherence:
//   - ids are sparse (7 + 3i), every 11th record reuses an id from
//     three records back, and every 13th takes an id that aliases an
//     earlier one mod the window, evicting it;
//   - dependencies point at the previous record, at ids that never
//     occur, at ids that alias a live id mod the window, and at ids
//     that an aliasing id has evicted;
//   - half the data references go to 16 lines all four cores share, so
//     one store invalidates copies in several L1Ds, dirty ones among
//     them; a quarter go to one L2 set so the L2 evicts dirty lines.
func adversarialTrace(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		u := uint64(i)
		h := u * 2654435761
		r := trace.Record{
			ID:   7 + 3*u,
			Dep:  trace.NoDep,
			PC:   0x400000 + u%97*4,
			CPU:  uint8(h >> 9 % 4),
			Kind: trace.Kind(h >> 5 % 3),
			Reps: uint8(h >> 13 % 4),
		}
		switch {
		case i >= 3 && i%11 == 0:
			r.ID = recs[i-3].ID
		case i >= 2 && i%13 == 0:
			r.ID = recs[i-2].ID + 5*depWindow
		}
		switch {
		case r.Kind == trace.Ifetch:
			r.Addr = 1<<40 + h>>20%1024*64
		case i%4 < 2:
			r.Addr = h >> 17 % 16 * 64
		case i%4 == 2:
			r.Addr = h >> 15 % 4096 << 26
		default:
			r.Addr = h % (8 << 20) &^ 63
		}
		switch {
		case i >= 1 && i%7 == 1:
			r.Dep = recs[i-1].ID
		case i%7 == 2:
			r.Dep = 2 // no record has this id
		case i >= 4 && i%7 == 4:
			r.Dep = recs[i-4].ID + depWindow
		case i >= 2 && i%7 == 6:
			r.Dep = recs[i-2].ID
		}
		recs[i] = r
	}
	return recs
}

// farDepTrace builds a trace whose last records depend on record 0,
// more than depWindow records back: every id in between is odd, so
// none evicts id 0 from its window slot. One dependency aliases id 0
// mod the window and must not resolve to it. The records in between
// hit in their core's L1D, which keeps the million-record replays
// cheap.
func farDepTrace() []trace.Record {
	n := depWindow + 300
	recs := make([]trace.Record, n)
	recs[0] = trace.Record{ID: 0, Dep: trace.NoDep, Addr: 1 << 30, Kind: trace.Store}
	for i := 1; i < n; i++ {
		u := uint64(i)
		recs[i] = trace.Record{
			ID: 2*u + 1, Dep: trace.NoDep,
			Addr: u%2<<20 | u/2%256*64, CPU: uint8(u % 2), Kind: trace.Kind(u % 2),
		}
		if i%5 == 0 {
			recs[i].Dep = recs[i-1].ID
		}
	}
	recs[n-200].Dep = depWindow
	recs[n-1].Dep = 0
	recs[n-2].Dep = 0
	return recs
}

// wrappingTrace builds a two-core trace of n records: 4 KB-strided
// loads and stores whose footprint wraps every 1250 records, so later
// passes hit the L2 (and, on the stacked machines, read the DRAM data
// array), with short dependencies and same-line repeats.
func wrappingTrace(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		kind := trace.Load
		if i%3 == 0 {
			kind = trace.Store
		}
		recs[i] = trace.Record{
			ID: uint64(i), Dep: trace.NoDep,
			Addr: uint64(i%1250) * 4096,
			PC:   0x400000 + uint64(i%7)*4,
			CPU:  uint8(i % 2), Kind: kind,
			Reps: uint8(i % 4),
		}
		if i > 2 && i%5 == 0 {
			recs[i].Dep = uint64(i - 2)
		}
	}
	return recs
}

// TestFilterReplayMatchesRun checks that filtering a trace once and
// replaying the log gives every Figure 5 machine the Result a full Run
// gives it, with and without faults.
func TestFilterReplayMatchesRun(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		cores int
		recs  []trace.Record
	}{
		{"adversarial", 4, adversarialTrace(30_000)},
		{"far-deps", 2, farDepTrace()},
		{"wrapping", 2, wrappingTrace(5000)},
	} {
		for _, fc := range []fault.Config{{}, replayFaults} {
			name := tc.name
			if fc.Enabled() {
				name += "/faults"
			}
			t.Run(name, func(t *testing.T) {
				cfgs := figure5Configs(t, tc.cores, fc)
				lg, err := FilterL1(ctx, cfgs[0], trace.NewSliceStream(tc.recs), nil)
				if err != nil {
					t.Fatal(err)
				}
				if tc.name == "far-deps" && lg.ring <= depWindow {
					t.Fatalf("completion ring has %d slots; the trace's dependencies reach back more than %d records", lg.ring, depWindow)
				}
				for _, cfg := range cfgs {
					want, err := mustSim(t, cfg).Run(ctx, trace.NewSliceStream(tc.recs), RunOptions{})
					if err != nil {
						t.Fatal(err)
					}
					got, err := mustSim(t, cfg).Replay(ctx, lg, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%d MB: replay differs from Run:\nreplay: %+v\nrun:    %+v", cfg.L2.SizeBytes>>20, got, want)
					}
					if tc.name == "adversarial" && fc.Enabled() && cfg.L2Type == L2DRAM &&
						(want.Faults.LinesPoisoned == 0 || want.DRAMCache.Remapped == 0) {
						t.Errorf("%d MB: trace reaches no poisoned line or dead bank: %+v", cfg.L2.SizeBytes>>20, want.Faults)
					}
				}
			})
		}
	}
}

// TestFilterResolvesLikeRun checks every dependency the filter stores
// against a direct model of Run's window: a map from slot (id mod
// depWindow) to the last record stored there. The filter's window may
// be smaller than depWindow; the distances must not change. The
// dense-ids trace has ids below 2^15, so its window shrinks, and
// dependencies reaching back more than half of it.
func TestFilterResolvesLikeRun(t *testing.T) {
	dense := wrappingTrace(20_000)
	for i := 17_000; i < len(dense); i += 3 {
		dense[i].Dep = uint64(i - 17_000)
	}
	for name, recs := range map[string][]trace.Record{
		"adversarial": adversarialTrace(30_000),
		"far-deps":    farDepTrace(),
		"dense-ids":   dense,
	} {
		lg, err := FilterL1(context.Background(), figure5Configs(t, 4, fault.Config{})[0], trace.NewSliceStream(recs), nil)
		if err != nil {
			t.Fatal(err)
		}
		type entry struct {
			id  uint64
			pos int
		}
		window := map[uint64]entry{}
		longest := 0
		events := slices.Concat(lg.events...)
		for i, r := range recs {
			want := 0
			if e, ok := window[r.Dep%depWindow]; r.HasDep() && ok && e.id == r.Dep {
				want = i - e.pos
			}
			window[r.ID%depWindow] = entry{r.ID, i}
			if got := int(events[i].dep); got != want {
				t.Fatalf("%s: record %d resolves its dependency %d records back, want %d", name, i, got, want)
			}
			longest = max(longest, want)
		}
		if lg.ring <= longest || lg.ring&(lg.ring-1) != 0 {
			t.Errorf("%s: completion ring of %d slots for dependencies up to %d back", name, lg.ring, longest)
		}
	}
}

// TestAdversarialTraceReachesEdges keeps adversarialTrace honest: its
// stores must invalidate and flush other cores' copies, and its
// dependencies must both resolve and miss.
func TestAdversarialTraceReachesEdges(t *testing.T) {
	recs := adversarialTrace(30_000)
	lg, err := FilterL1(context.Background(), figure5Configs(t, 4, fault.Config{})[0], trace.NewSliceStream(recs), nil)
	if err != nil {
		t.Fatal(err)
	}
	var flushes, deps int
	for _, ev := range slices.Concat(lg.events...) {
		flushes += int(ev.flushes)
		if ev.dep != 0 {
			deps++
		}
	}
	withDep := 0
	for _, r := range recs {
		if r.HasDep() {
			withDep++
		}
	}
	if lg.invals < 1000 || flushes < 100 {
		t.Errorf("%d invalidations, %d dirty flushes: want at least 1000 and 100", lg.invals, flushes)
	}
	if deps < 1000 || withDep-deps < 1000 {
		t.Errorf("%d of %d dependencies resolve: want at least 1000 of each kind", deps, withDep)
	}
}

// TestReplaySharedRegistry checks that four replays of one log into a
// shared registry total the same replay counters as four Runs.
func TestReplaySharedRegistry(t *testing.T) {
	ctx := context.Background()
	recs := adversarialTrace(10_000)
	cfgs := figure5Configs(t, 4, replayFaults)
	lg, err := FilterL1(ctx, cfgs[0], trace.NewSliceStream(recs), nil)
	if err != nil {
		t.Fatal(err)
	}
	runs, replays := obs.NewRegistry(), obs.NewRegistry()
	for _, cfg := range cfgs {
		if _, err := mustSim(t, cfg).Run(ctx, trace.NewSliceStream(recs), RunOptions{Obs: runs}); err != nil {
			t.Fatal(err)
		}
		if _, err := mustSim(t, cfg).Replay(ctx, lg, replays); err != nil {
			t.Fatal(err)
		}
	}
	want, got := runs.Snapshot(false), replays.Snapshot(false)
	if want.Counters["memhier_l1_hits"] == 0 || want.Counters["memhier_l2_misses"] == 0 {
		t.Fatalf("runs counted nothing: %v", want.Counters)
	}
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Errorf("counters differ:\nreplays: %v\nruns:    %v", got.Counters, want.Counters)
	}
	if !reflect.DeepEqual(got.Histograms, want.Histograms) {
		t.Error("histograms differ between replays and runs")
	}
}

// TestReplayPublishConcurrent checks that replays publishing into one
// registry from several goroutines at once total what the same
// replays publish one after another.
func TestReplayPublishConcurrent(t *testing.T) {
	ctx := context.Background()
	recs := adversarialTrace(10_000)
	cfgs := figure5Configs(t, 4, replayFaults)
	lg, err := FilterL1(ctx, cfgs[0], trace.NewSliceStream(recs), nil)
	if err != nil {
		t.Fatal(err)
	}
	serial, shared := obs.NewRegistry(), obs.NewRegistry()
	var wg sync.WaitGroup
	for _, cfg := range cfgs {
		if _, err := mustSim(t, cfg).Replay(ctx, lg, serial); err != nil {
			t.Fatal(err)
		}
		sim := mustSim(t, cfg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sim.Replay(ctx, lg, shared); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	want, got := serial.Snapshot(false), shared.Snapshot(false)
	if !reflect.DeepEqual(got.Counters, want.Counters) || !reflect.DeepEqual(got.Histograms, want.Histograms) {
		t.Errorf("concurrent replays published\n%v\nserial replays\n%v", got.Counters, want.Counters)
	}
}

// TestReplayRefusesOtherL1s checks that a log replays only on machines
// with the core count and L1s it was filtered for.
func TestReplayRefusesOtherL1s(t *testing.T) {
	ctx := context.Background()
	lg, err := FilterL1(ctx, BaselineConfig(), trace.NewSliceStream(wrappingTrace(100)), nil)
	if err != nil {
		t.Fatal(err)
	}
	moreCores := StackedDRAMConfig(32)
	moreCores.Cores = 4
	biggerL1I := StackedDRAMConfig(32)
	biggerL1I.L1I.SizeBytes *= 2
	slowerL1D := StackedDRAMConfig(32)
	slowerL1D.L1D.Latency++
	for name, cfg := range map[string]Config{"cores": moreCores, "L1I": biggerL1I, "L1D": slowerL1D} {
		if _, err := mustSim(t, cfg).Replay(ctx, lg, nil); err == nil || !strings.Contains(err.Error(), "L1 log") {
			t.Errorf("%s: replay on another machine returned %v, want an L1 log error", name, err)
		}
	}
	if _, err := mustSim(t, StackedDRAMConfig(64)).Replay(ctx, lg, nil); err != nil {
		t.Errorf("replay on a machine with the same L1s: %v", err)
	}
}

// TestFilterRejectsBadCPU checks that the filter refuses a record
// naming a missing core with Run's error.
func TestFilterRejectsBadCPU(t *testing.T) {
	recs := []trace.Record{{ID: 0, Dep: trace.NoDep, CPU: 7, Kind: trace.Load}}
	_, runErr := mustSim(t, BaselineConfig()).Run(context.Background(), trace.NewSliceStream(recs), RunOptions{})
	_, err := FilterL1(context.Background(), BaselineConfig(), trace.NewSliceStream(recs), nil)
	if err == nil || runErr == nil || err.Error() != runErr.Error() {
		t.Fatalf("filter error %v, Run error %v: want the same error", err, runErr)
	}
}

// switchingTrace builds a two-core trace of n records whose ids equal
// their positions for the first k; from record k on they count up
// from next instead. Every third record depends on the record 1 to 60
// positions back, by that record's id, and every seventh on the id
// its position minus 40 would have had, so dependencies cross the
// switch in both forms.
func switchingTrace(n, k int, next uint64) []trace.Record {
	recs := wrappingTrace(n)
	for i := k; i < n; i++ {
		recs[i].ID = next + uint64(i-k)
	}
	for i := range recs {
		recs[i].Dep = trace.NoDep
		switch {
		case i >= 60 && i%3 == 0:
			recs[i].Dep = recs[i-1-i%60].ID
		case i >= 40 && i%7 == 0:
			recs[i].Dep = uint64(i - 40)
		}
	}
	return recs
}

// TestFilterWindowSwitch checks the implicit dependency window against
// Run on traces whose ids stop equalling their positions partway: one
// jumps forward past depWindow, so the materialized window must also
// grow, and one jumps back onto ids already seen. Dependencies reach
// across the switch in both.
func TestFilterWindowSwitch(t *testing.T) {
	ctx := context.Background()
	const n, k = 6000, 3000
	for name, recs := range map[string][]trace.Record{
		"forward":  switchingTrace(n, k, depWindow+k/2),
		"backward": switchingTrace(n, k, k/2),
	} {
		t.Run(name, func(t *testing.T) {
			cfgs := figure5Configs(t, 2, fault.Config{})
			lg, err := FilterL1(ctx, cfgs[0], trace.NewSliceStream(recs), nil)
			if err != nil {
				t.Fatal(err)
			}
			crossing := 0
			events := slices.Concat(lg.events...)
			for i := k; i < n; i++ {
				if d := int(events[i].dep); d != 0 && i-d < k {
					crossing++
				}
			}
			if crossing == 0 {
				t.Fatal("no dependency resolves across the switch")
			}
			for _, cfg := range cfgs {
				want, err := mustSim(t, cfg).Run(ctx, trace.NewSliceStream(recs), RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := mustSim(t, cfg).Replay(ctx, lg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%d MB: replay differs from Run:\nreplay: %+v\nrun:    %+v", cfg.L2.SizeBytes>>20, got, want)
				}
			}
		})
	}
}

// inOrderStream is a sized stream of n records whose ids are their
// positions, each depending on its predecessor and hitting one line of
// its core's L1D, so filtering it allocates little beside the log's
// events.
type inOrderStream struct{ i, n int }

func (s *inOrderStream) Len() int { return s.n }

func (s *inOrderStream) Next() (trace.Record, error) {
	if s.i == s.n {
		return trace.Record{}, io.EOF
	}
	r := trace.Record{ID: uint64(s.i), Dep: uint64(s.i) - 1, Addr: 0x1000, CPU: uint8(s.i % 2), Kind: trace.Load}
	if s.i == 0 {
		r.Dep = trace.NoDep
	}
	s.i++
	return r, nil
}

// TestFilterInOrderAllocatesNoWindow checks that filtering an in-order
// trace of depWindow records allocates its log and little more: no
// dependency window of depWindow slots (12 bytes each) beside it.
func TestFilterInOrderAllocatesNoWindow(t *testing.T) {
	src := &inOrderStream{n: depWindow}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lg, err := FilterL1(context.Background(), BaselineConfig(), src, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if last := slices.Concat(lg.events...)[depWindow-1]; last.dep != 1 {
		t.Fatalf("last record's dependency resolves %d records back, want 1", last.dep)
	}
	events := uint64(depWindow) * uint64(unsafe.Sizeof(event{}))
	if got, limit := after.TotalAlloc-before.TotalAlloc, events+2<<20; got > limit {
		t.Errorf("FilterL1 allocates %.1f MB for %d in-order records, want at most %.1f MB (%.1f MB of events)",
			float64(got)/(1<<20), depWindow, float64(limit)/(1<<20), float64(events)/(1<<20))
	}
}
