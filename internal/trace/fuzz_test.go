package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// FuzzTraceReader feeds outside bytes — a trace file — to Reader and
// requires: no panic; every error other than io.EOF either wraps
// io.ErrUnexpectedEOF or names the bad magic, version or kind; and the
// records accepted before it re-encode through Writer to exactly the
// bytes they were read from. Seeds are in testdata/fuzz/FuzzTraceReader.
func FuzzTraceReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var got []Record
		for {
			rec, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				if !errors.Is(err, io.ErrUnexpectedEOF) && !namesBadField(err) {
					t.Fatalf("untyped error after %d records: %v", len(got), err)
				}
				break
			}
			got = append(got, rec)
			if len(got)*recSize > len(data) {
				t.Fatalf("%d records decoded from %d bytes", len(got), len(data))
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, rec := range got {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if header := buf.Bytes()[:len(magic)+1]; !bytes.HasPrefix(data, header) {
			if len(got) > 0 {
				t.Fatalf("%d records accepted behind header %q", len(got), data[:min(len(data), len(header))])
			}
			return
		}
		if want := data[:buf.Len()]; !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("re-encoding %d records:\n got %x\nwant %x", len(got), buf.Bytes(), want)
		}
	})
}

// namesBadField reports whether err is the Reader's rejection of a
// malformed magic, version or kind field.
func namesBadField(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "bad magic") ||
		strings.Contains(msg, "unsupported version") ||
		strings.Contains(msg, "invalid kind")
}
