package memhier

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"diestack/internal/fault"
	"diestack/internal/trace"
)

// ckptTrace builds a trace with enough variety to exercise every piece
// of checkpointed state: strided loads and stores missing all cache
// levels, dependencies, and repeats.
func ckptTrace(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		kind := trace.Load
		if i%3 == 0 {
			kind = trace.Store
		}
		// The footprint wraps so later passes hit the L2 (and, for the
		// stacked configurations, read the DRAM data array).
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

// runResumed replays recs with a checkpoint at interruptAt records,
// then resumes from the file in a fresh simulator and runs to the end,
// as if the first process had been killed.
func runResumed(t *testing.T, cfg Config, recs []trace.Record, interruptAt int) Result {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")

	first := mustSim(t, cfg)
	_, err := first.Run(context.Background(), trace.NewSliceStream(recs), RunOptions{
		Limit: interruptAt, CheckpointEvery: interruptAt, CheckpointPath: path,
	})
	if err != nil {
		t.Fatalf("interrupted run: %v", err)
	}

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("loading checkpoint: %v", err)
	}
	if cp.Records != uint64(interruptAt) {
		t.Fatalf("checkpoint at record %d, want %d", cp.Records, interruptAt)
	}
	second := mustSim(t, cfg)
	res, err := second.Run(context.Background(), trace.NewSliceStream(recs), RunOptions{Resume: cp})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return res
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	recs := ckptTrace(5000)
	for _, cfg := range []Config{BaselineConfig(), StackedDRAMConfig(32)} {
		uninterrupted, err := mustSim(t, cfg).Run(context.Background(), trace.NewSliceStream(recs), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		resumed := runResumed(t, cfg, recs, 2000)
		if !reflect.DeepEqual(uninterrupted, resumed) {
			t.Errorf("%s: resumed result differs from uninterrupted run:\nuninterrupted: %+v\nresumed:       %+v",
				cfg.L2Type, uninterrupted, resumed)
		}
	}
}

func TestCheckpointResumeWithFaultsBitIdentical(t *testing.T) {
	// The fault schedule is a pure function of (seed, draw counter);
	// restoring the counters must resume it exactly.
	cfg := StackedDRAMConfig(32)
	cfg.Faults = fault.Config{
		Seed:                    7,
		CorrectablePerMAccess:   5000,
		UncorrectablePerMAccess: 500,
	}
	recs := ckptTrace(5000)
	uninterrupted, err := mustSim(t, cfg).Run(context.Background(), trace.NewSliceStream(recs), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if uninterrupted.Faults.ECCChecks == 0 {
		t.Fatal("test trace never touched the faulty DRAM cache")
	}
	resumed := runResumed(t, cfg, recs, 2500)
	if !reflect.DeepEqual(uninterrupted, resumed) {
		t.Errorf("fault-injected resume differs:\nuninterrupted: %+v\nresumed:       %+v",
			uninterrupted, resumed)
	}
}

func TestCheckpointRefusesCorruptFile(t *testing.T) {
	cfg := BaselineConfig()
	recs := ckptTrace(1000)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	_, err := mustSim(t, cfg).Run(context.Background(), trace.NewSliceStream(recs), RunOptions{
		CheckpointEvery: 500, CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit flip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		}},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c, "NOPE")
			return c
		}},
		{"empty", func([]byte) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := filepath.Join(t.TempDir(), "bad.ckpt")
			if err := os.WriteFile(bad, tc.mangle(raw), 0o600); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadCheckpoint(bad); !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("want ErrCorruptCheckpoint, got %v", err)
			}
		})
	}
}

func TestCheckpointRefusesWrongTrace(t *testing.T) {
	cfg := BaselineConfig()
	recs := ckptTrace(1000)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	_, err := mustSim(t, cfg).Run(context.Background(), trace.NewSliceStream(recs), RunOptions{
		CheckpointEvery: 500, CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("different content", func(t *testing.T) {
		other := ckptTrace(1000)
		other[100].Addr ^= 0x1000
		_, err := mustSim(t, cfg).Run(context.Background(), trace.NewSliceStream(other), RunOptions{Resume: cp})
		if !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("want ErrCheckpointMismatch, got %v", err)
		}
	})
	t.Run("trace too short", func(t *testing.T) {
		_, err := mustSim(t, cfg).Run(context.Background(), trace.NewSliceStream(recs[:100]), RunOptions{Resume: cp})
		if !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("want ErrCheckpointMismatch, got %v", err)
		}
	})
	t.Run("different machine", func(t *testing.T) {
		_, err := mustSim(t, StackedDRAMConfig(32)).Run(context.Background(), trace.NewSliceStream(recs), RunOptions{Resume: cp})
		if !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("want ErrCheckpointMismatch, got %v", err)
		}
	})
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	recs := ckptTrace(20000)
	_, err := mustSim(t, BaselineConfig()).Run(ctx, trace.NewSliceStream(recs), RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestCheckpointEveryRequiresPath(t *testing.T) {
	recs := ckptTrace(10)
	_, err := mustSim(t, BaselineConfig()).Run(context.Background(), trace.NewSliceStream(recs), RunOptions{CheckpointEvery: 5})
	if err == nil {
		t.Fatal("CheckpointEvery without CheckpointPath should be rejected")
	}
}

// TestChainedResumeBitIdentical resumes a run that itself checkpoints,
// then resumes again from that run's last checkpoint: the third leg's
// Result must equal an uninterrupted run's. Run folds records into the
// stream digest only while it writes checkpoints, so the second leg
// must carry the digest on from the first checkpoint.
func TestChainedResumeBitIdentical(t *testing.T) {
	faulty := StackedDRAMConfig(32)
	faulty.Faults = fault.Config{Seed: 5, CorrectablePerMAccess: 5000, UncorrectablePerMAccess: 500}
	recs := ckptTrace(6000)
	for _, cfg := range []Config{BaselineConfig(), faulty} {
		ctx := context.Background()
		uninterrupted, err := mustSim(t, cfg).Run(ctx, trace.NewSliceStream(recs), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		first, second := filepath.Join(dir, "first.ckpt"), filepath.Join(dir, "second.ckpt")
		if _, err := mustSim(t, cfg).Run(ctx, trace.NewSliceStream(recs), RunOptions{
			Limit: 1500, CheckpointEvery: 1500, CheckpointPath: first,
		}); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(first)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mustSim(t, cfg).Run(ctx, trace.NewSliceStream(recs), RunOptions{
			Resume: cp, Limit: 4000, CheckpointEvery: 1000, CheckpointPath: second,
		}); err != nil {
			t.Fatal(err)
		}
		if cp, err = LoadCheckpoint(second); err != nil {
			t.Fatal(err)
		}
		if cp.Records != 4000 {
			t.Fatalf("second checkpoint at record %d, want 4000", cp.Records)
		}
		resumed, err := mustSim(t, cfg).Run(ctx, trace.NewSliceStream(recs), RunOptions{Resume: cp})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(uninterrupted, resumed) {
			t.Errorf("%s: twice-resumed result differs:\nuninterrupted: %+v\nresumed:       %+v",
				cfg.L2Type, uninterrupted, resumed)
		}
	}
}

// TestCheckpointRefusesInconsistentState checks that a well-framed
// checkpoint whose dependency window is inconsistent — an entry outside
// its id's slot, two entries in one slot, or an empty-slot id — is
// refused rather than silently dropping dependencies, and that ring
// positions outside their rings and more open DRAM rows than a bank
// holds are refused too.
func TestCheckpointRefusesInconsistentState(t *testing.T) {
	cfg := BaselineConfig()
	recs := ckptTrace(1000)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := mustSim(t, cfg).Run(context.Background(), trace.NewSliceStream(recs), RunOptions{
		Limit: 500, CheckpointEvery: 500, CheckpointPath: path,
	}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mangle func(cp *Checkpoint)
	}{
		{"slot is not id mod window", func(cp *Checkpoint) { cp.Done[3].W++ }},
		{"slot beyond window", func(cp *Checkpoint) { cp.Done[3].W += depWindow }},
		{"two entries in one slot", func(cp *Checkpoint) { cp.Done = append(cp.Done, cp.Done[3]) }},
		{"aliasing id in a taken slot", func(cp *Checkpoint) {
			e := cp.Done[3]
			e.ID += depWindow
			cp.Done = append(cp.Done, e)
		}},
		{"empty-slot id", func(cp *Checkpoint) {
			cp.Done = append(cp.Done, DepEntry{W: emptySlot % depWindow, ID: emptySlot})
		}},
		{"MSHR position", func(cp *Checkpoint) { cp.MSHRPos[1] = len(cp.MSHR[1]) }},
		{"ROB position", func(cp *Checkpoint) { cp.ROBPos[0] = -1 }},
		{"open rows beyond the row buffers", func(cp *Checkpoint) {
			cp.Mem.Banks[0].Rows = append(cp.Mem.Banks[0].Rows, 1, 2, 3)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.mangle(cp)
			// Re-frame the mangled snapshot: the file is well formed,
			// only its content is inconsistent.
			bad := filepath.Join(t.TempDir(), "bad.ckpt")
			if err := SaveCheckpoint(bad, cp); err != nil {
				t.Fatal(err)
			}
			if cp, err = LoadCheckpoint(bad); err != nil {
				t.Fatalf("re-framed checkpoint does not load: %v", err)
			}
			_, err = mustSim(t, cfg).Run(context.Background(), trace.NewSliceStream(recs), RunOptions{Resume: cp})
			if !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("want ErrCheckpointMismatch, got %v", err)
			}
		})
	}
}
