package trace

import (
	"bytes"
	"io"
	"testing"
)

// TestRecordPathAllocs pins the per-record cost of every stream the
// replay and round-trip paths use at zero allocations: encoding a
// record, decoding one, and reading one from memory. Each measurement
// starts after the header so the one-time setup is exempt.
func TestRecordPathAllocs(t *testing.T) {
	const runs = 1000
	recs := benchRecords(runs + 2)

	t.Run("Writer.Write", func(t *testing.T) {
		w := NewWriter(io.Discard)
		if err := w.Write(recs[0]); err != nil {
			t.Fatal(err)
		}
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			i++
			if err := w.Write(recs[i]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Writer.Write allocates %v objects per record, want 0", allocs)
		}
	})

	t.Run("Reader.Next", func(t *testing.T) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := NewReader(bytes.NewReader(buf.Bytes()))
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Reader.Next allocates %v objects per record, want 0", allocs)
		}
	})

	t.Run("SliceStream.Next", func(t *testing.T) {
		s := NewSliceStream(recs)
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := s.Next(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("SliceStream.Next allocates %v objects per record, want 0", allocs)
		}
	})
}
