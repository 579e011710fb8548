package memhier

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"diestack/internal/cache"
	"diestack/internal/fault"
	"diestack/internal/trace"
)

// fuzzConfigs are the machines FuzzResumeCheckpoint resumes on: a
// planar SRAM L2 and a stacked DRAM L2 with ECC and dead-bank faults,
// both shrunk so a checkpoint of them is a few kilobytes.
func fuzzConfigs() []Config {
	l1 := cache.Config{SizeBytes: 256, LineBytes: 64, Ways: 2, Latency: 4}
	sram := BaselineConfig()
	sram.L1I, sram.L1D = l1, l1
	sram.L2 = cache.Config{SizeBytes: 2048, LineBytes: 64, Ways: 4, Latency: 16}
	sram.Memory.Banks = 2
	dram := StackedDRAMConfig(32)
	dram.L1I, dram.L1D = l1, l1
	dram.L2 = cache.Config{SizeBytes: 4096, LineBytes: 512, Ways: 2, Latency: 8, SectorBytes: 64}
	dram.DRAMArray.Banks = 4
	dram.Memory.Banks = 2
	dram.Faults = fault.Config{Seed: 3, CorrectablePerMAccess: 50000, UncorrectablePerMAccess: 20000, DeadBanks: []int{1}}
	return []Config{sram, dram}
}

// fuzzTraceLen is the length of the ckptTrace FuzzResumeCheckpoint
// resumes; its seeds were checkpointed 120 records into it.
const fuzzTraceLen = 300

// frameCheckpoint wraps a gob payload in a checkpoint header with a
// correct length and CRC.
func frameCheckpoint(payload []byte) []byte {
	raw := make([]byte, len(checkpointMagic)+16, len(checkpointMagic)+16+len(payload))
	copy(raw, checkpointMagic)
	h := raw[len(checkpointMagic):]
	binary.BigEndian.PutUint32(h[0:4], checkpointVersion)
	binary.BigEndian.PutUint64(h[4:12], uint64(len(payload)))
	binary.BigEndian.PutUint32(h[12:16], crc32.ChecksumIEEE(payload))
	return append(raw, payload...)
}

// FuzzResumeCheckpoint feeds outside bytes — a checkpoint's gob
// payload, re-framed with a correct CRC so the fuzzer gets past the
// checksum — to the checkpoint decoder and resumes a short trace from
// whatever decodes, on both fuzzConfigs machines. It requires no
// panic, decode errors matching ErrCorruptCheckpoint, and resume errors
// matching ErrCheckpointMismatch. Time and memory stay bounded: gob
// decodes no more elements than the payload has bytes, the machines
// are fixed, and the trace is fuzzTraceLen records. Seeds, one valid
// payload per machine, are in testdata/fuzz/FuzzResumeCheckpoint.
func FuzzResumeCheckpoint(f *testing.F) {
	cfgs := fuzzConfigs()
	recs := ckptTrace(fuzzTraceLen)
	f.Fuzz(func(t *testing.T, payload []byte) {
		cp, err := decodeCheckpoint("fuzz", frameCheckpoint(payload))
		if err != nil {
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("decode error does not match ErrCorruptCheckpoint: %v", err)
			}
			return
		}
		for _, cfg := range cfgs {
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = sim.Run(context.Background(), trace.NewSliceStream(recs), RunOptions{Resume: cp})
			if err != nil && !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("resume error does not match ErrCheckpointMismatch: %v", err)
			}
		}
	})
}

// TestFuzzResumeSeedsResume checks that every FuzzResumeCheckpoint
// seed is a live checkpoint: it resumes on one fuzzConfigs machine to
// the Result of an uninterrupted run, so the fuzzer starts from
// payloads that reach the restore code.
func TestFuzzResumeSeedsResume(t *testing.T) {
	seeds, err := filepath.Glob("testdata/fuzz/FuzzResumeCheckpoint/*")
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no seeds: %v", err)
	}
	recs := ckptTrace(fuzzTraceLen)
	for _, seed := range seeds {
		raw, err := os.ReadFile(seed)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")")
		payload, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s: not a []byte corpus entry: %v", seed, err)
		}
		cp, err := decodeCheckpoint(seed, frameCheckpoint([]byte(payload)))
		if err != nil {
			t.Fatalf("%s: %v", seed, err)
		}
		resumed := 0
		for _, cfg := range fuzzConfigs() {
			got, err := mustSim(t, cfg).Run(context.Background(), trace.NewSliceStream(recs), RunOptions{Resume: cp})
			if errors.Is(err, ErrCheckpointMismatch) {
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", seed, err)
			}
			want, err := mustSim(t, cfg).Run(context.Background(), trace.NewSliceStream(recs), RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: resumed run differs from an uninterrupted one", seed)
			}
			resumed++
		}
		if resumed != 1 {
			t.Errorf("%s resumes on %d machines, want 1", seed, resumed)
		}
	}
}
