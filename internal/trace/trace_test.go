package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func sample() []Record {
	return []Record{
		{ID: 0, Dep: NoDep, Addr: 0x1000, PC: 0x400000, CPU: 0, Kind: Load},
		{ID: 1, Dep: 0, Addr: 0x1040, PC: 0x400004, CPU: 0, Kind: Load},
		{ID: 2, Dep: NoDep, Addr: 0x2000, PC: 0x400008, CPU: 1, Kind: Store},
		{ID: 3, Dep: 1, Addr: 0x1080, PC: 0x40000c, CPU: 0, Kind: Store},
		{ID: 4, Dep: NoDep, Addr: 0x400010, PC: 0x400010, CPU: 1, Kind: Ifetch},
	}
}

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" || Ifetch.String() != "ifetch" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind should include numeric value")
	}
}

func TestRecordString(t *testing.T) {
	r := sample()[1]
	s := r.String()
	for _, want := range []string{"#1", "cpu0", "load", "dep=0"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if !strings.Contains(sample()[0].String(), "dep=-") {
		t.Error("independent record should print dep=-")
	}
}

func TestSliceStream(t *testing.T) {
	s := NewSliceStream(sample())
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	var got []Record
	for {
		r, err := s.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if len(got) != 5 || got[3].Dep != 1 {
		t.Fatalf("drained %d records, got[3]=%v", len(got), got[3])
	}
	s.Reset()
	if r, err := s.Next(); err != nil || r.ID != 0 {
		t.Fatal("Reset did not rewind")
	}
}

func TestCollectMax(t *testing.T) {
	recs, err := Collect(context.Background(), NewSliceStream(sample()), 3)
	if err != nil || len(recs) != 3 {
		t.Fatalf("Collect(3) = %d records, err=%v", len(recs), err)
	}
	recs, err = Collect(context.Background(), NewSliceStream(sample()), 0)
	if err != nil || len(recs) != 5 {
		t.Fatalf("Collect(0) = %d records, err=%v", len(recs), err)
	}
}

// TestCollectPresizesFromReader: a Reader over a regular file or a
// bytes.Reader tells Collect how many records its source holds, so the
// collected slice is allocated once at its final size.
func TestCollectPresizesFromReader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range benchRecords(1000) {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.d3dt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, src := range map[string]io.Reader{"file": f, "bytes.Reader": bytes.NewReader(buf.Bytes())} {
		recs, err := Collect(context.Background(), NewReader(src), 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) != 1000 || cap(recs) != len(recs) {
			t.Errorf("%s: len %d cap %d, want both 1000", name, len(recs), cap(recs))
		}
	}
}

func TestValidateGood(t *testing.T) {
	if err := Validate(context.Background(), NewSliceStream(sample())); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateNonMonotonic(t *testing.T) {
	recs := []Record{{ID: 1, Dep: NoDep}, {ID: 1, Dep: NoDep}}
	err := Validate(context.Background(), NewSliceStream(recs))
	if !errors.Is(err, ErrNonMonotonicID) {
		t.Fatalf("err = %v, want ErrNonMonotonicID", err)
	}
}

func TestValidateForwardDep(t *testing.T) {
	recs := []Record{{ID: 0, Dep: NoDep}, {ID: 1, Dep: 1}}
	err := Validate(context.Background(), NewSliceStream(recs))
	if !errors.Is(err, ErrForwardDep) {
		t.Fatalf("err = %v, want ErrForwardDep", err)
	}
}

func TestValidateUnknownDep(t *testing.T) {
	recs := []Record{{ID: 5, Dep: NoDep}, {ID: 9, Dep: 7}}
	err := Validate(context.Background(), NewSliceStream(recs))
	if !errors.Is(err, ErrUnknownDep) {
		t.Fatalf("err = %v, want ErrUnknownDep", err)
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range sample() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 5 {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(context.Background(), NewReader(&buf), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	if len(got) != len(want) {
		t.Fatalf("round trip count %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(ids []uint32, addrs []uint64, cpus []uint8) bool {
		n := len(ids)
		if len(addrs) < n {
			n = len(addrs)
		}
		if len(cpus) < n {
			n = len(cpus)
		}
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			recs[i] = Record{
				ID: uint64(i), Dep: NoDep, Addr: addrs[i],
				PC: uint64(ids[i]), CPU: cpus[i], Kind: Kind(i % 3),
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range recs {
			if w.Write(r) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		got, err := Collect(context.Background(), NewReader(&buf), 0)
		if err != nil || len(got) != n {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(context.Background(), NewReader(&buf), 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty trace: %d records, err=%v", len(got), err)
	}
}

func TestWriteAfterFlush(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{}); err == nil {
		t.Fatal("write after Flush should error")
	}
}

func TestReaderBadMagic(t *testing.T) {
	r := NewReader(strings.NewReader("XXXX\x01"))
	if _, err := r.Next(); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReaderBadVersion(t *testing.T) {
	r := NewReader(strings.NewReader(magic + "\x07"))
	if _, err := r.Next(); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestReaderTruncatedHeader(t *testing.T) {
	r := NewReader(strings.NewReader("D3"))
	if _, err := r.Next(); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Record{ID: 0, Dep: NoDep}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	r := NewReader(bytes.NewReader(trunc))
	_, err := r.Next()
	if err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestReaderBadKind(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.WriteByte(version)
	rec := make([]byte, recSize)
	rec[33] = 99 // invalid kind
	buf.Write(rec)
	r := NewReader(&buf)
	if _, err := r.Next(); err == nil {
		t.Fatal("invalid kind accepted")
	}
}
