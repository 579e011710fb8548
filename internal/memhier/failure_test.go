package memhier

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"diestack/internal/trace"
)

// faultyStream yields good records then fails.
type faultyStream struct {
	good int
	pos  int
}

func (f *faultyStream) Next() (trace.Record, error) {
	if f.pos >= f.good {
		return trace.Record{}, errors.New("injected stream fault")
	}
	r := trace.Record{ID: uint64(f.pos), Dep: trace.NoDep, Addr: uint64(f.pos) * 64, Kind: trace.Load}
	f.pos++
	return r, nil
}

func TestRunPropagatesStreamErrors(t *testing.T) {
	s := mustSim(t, BaselineConfig())
	_, err := s.Run(context.Background(), &faultyStream{good: 100}, RunOptions{})
	if err == nil {
		t.Fatal("stream fault swallowed")
	}
	if !strings.Contains(err.Error(), "injected stream fault") {
		t.Fatalf("fault not wrapped: %v", err)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	recs := wrappingTrace(20000)
	_, err := mustSim(t, BaselineConfig()).Run(ctx, trace.NewSliceStream(recs), RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// slowEOFStream returns io.EOF wrapped, which must still terminate.
type wrappedEOFStream struct{ pos int }

func (w *wrappedEOFStream) Next() (trace.Record, error) {
	if w.pos >= 10 {
		return trace.Record{}, io.EOF
	}
	r := trace.Record{ID: uint64(w.pos), Dep: trace.NoDep, Addr: 0, Kind: trace.Load}
	w.pos++
	return r, nil
}

func TestRunHandlesEOF(t *testing.T) {
	s := mustSim(t, BaselineConfig())
	res, err := s.Run(context.Background(), &wrappedEOFStream{}, RunOptions{})
	if err != nil || res.Records != 10 {
		t.Fatalf("EOF handling wrong: %d records, err=%v", res.Records, err)
	}
}

func TestSingleCoreMachine(t *testing.T) {
	cfg := BaselineConfig()
	cfg.Cores = 1
	s := mustSim(t, cfg)
	recs := seqTrace(5000, 1, func(i int) uint64 { return uint64(i%64) * 64 })
	res, err := s.Run(context.Background(), trace.NewSliceStream(recs), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// One core: CPMA floor is 1.0.
	if res.CPMA < 0.99 {
		t.Fatalf("single-core CPMA %v below the 1.0 floor", res.CPMA)
	}
}

func TestDependencyBeyondWindowStillRuns(t *testing.T) {
	// A dependency further back than the completion window must be
	// treated as already complete, not crash or stall.
	s := mustSim(t, BaselineConfig())
	n := 1 << 21 // larger than the 1<<20 window
	recs := make([]trace.Record, n)
	for i := range recs {
		dep := trace.NoDep
		if i == n-1 {
			dep = 0 // refers to the very first record
		}
		recs[i] = trace.Record{
			ID: uint64(i), Dep: dep, Addr: uint64(i%1024) * 64,
			CPU: uint8(i % 2), Kind: trace.Load, Reps: 3,
		}
	}
	res, err := s.Run(context.Background(), trace.NewSliceStream(recs), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != uint64(n) {
		t.Fatalf("Records = %d", res.Records)
	}
}

func TestBinaryReaderAsStream(t *testing.T) {
	// The simulator consumes the binary trace reader directly.
	recs := seqTrace(1000, 2, func(i int) uint64 { return uint64(i) * 64 })
	var sb strings.Builder
	w := trace.NewWriter(&sb)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	s := mustSim(t, BaselineConfig())
	res, err := s.Run(context.Background(), trace.NewReader(strings.NewReader(sb.String())), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 1000 {
		t.Fatalf("Records = %d", res.Records)
	}

	// And a truncated file surfaces an error instead of silence.
	s2 := mustSim(t, BaselineConfig())
	trunc := sb.String()[:sb.Len()-7]
	if _, err := s2.Run(context.Background(), trace.NewReader(strings.NewReader(trunc)), RunOptions{}); err == nil {
		t.Fatal("truncated trace accepted")
	}
}
