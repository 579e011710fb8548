// Package trace defines the dependency-annotated memory trace format
// consumed by the memory hierarchy simulator.
//
// The paper's trace generator runs alongside a full-system SMP
// simulator and emits one record per memory instruction. Each record
// carries the usual fields (cpu id, address, instruction pointer) plus
// the identifier of an earlier record it depends upon; the hierarchy
// simulator must not issue a record before its dependency completes.
// This package reproduces that contract: Record is the wire format,
// Reader/Writer stream records, and Validate enforces the structural
// invariants (monotone ids, dependencies strictly backwards).
package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
)

// Kind classifies a memory reference.
type Kind uint8

const (
	// Load is a data read.
	Load Kind = iota
	// Store is a data write.
	Store
	// Ifetch is an instruction fetch.
	Ifetch
)

// String returns the conventional short name for the kind.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Ifetch:
		return "ifetch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// NoDep marks a record with no dependency.
const NoDep = ^uint64(0)

// Record is one memory reference in a trace. IDs are assigned in
// global program order starting at 0 and must be strictly increasing
// within a trace. Dep, when not NoDep, names an earlier record whose
// completion must precede this record's issue.
type Record struct {
	ID   uint64
	Dep  uint64 // NoDep if independent
	Addr uint64 // byte address of the access
	PC   uint64 // instruction pointer of the access
	CPU  uint8  // originating logical processor
	Kind Kind
	// Reps is the number of immediately following accesses to the same
	// cache line beyond this one (0 means the record is a single
	// access). Trace generators use it to compress the common
	// sequential pattern — eight doubles read from one 64-byte line —
	// into one record; the hierarchy simulator replays the repeats as
	// first-level hits.
	Reps uint8
}

// Accesses returns the total number of accesses the record represents.
func (r Record) Accesses() int { return 1 + int(r.Reps) }

// HasDep reports whether the record carries a dependency.
func (r Record) HasDep() bool { return r.Dep != NoDep }

// String renders the record for debugging.
func (r Record) String() string {
	dep := "-"
	if r.HasDep() {
		dep = fmt.Sprint(r.Dep)
	}
	return fmt.Sprintf("#%d cpu%d %s addr=%#x pc=%#x dep=%s",
		r.ID, r.CPU, r.Kind, r.Addr, r.PC, dep)
}

// Stream produces trace records in program order. Next returns io.EOF
// after the final record.
type Stream interface {
	Next() (Record, error)
}

// SliceStream adapts an in-memory record slice to a Stream.
type SliceStream struct {
	recs []Record
	pos  int
}

// NewSliceStream returns a Stream over recs. The slice is not copied.
func NewSliceStream(recs []Record) *SliceStream {
	return &SliceStream{recs: recs}
}

// Next implements Stream.
func (s *SliceStream) Next() (Record, error) {
	if s.pos >= len(s.recs) {
		return Record{}, io.EOF
	}
	r := s.recs[s.pos]
	s.pos++
	return r, nil
}

// Reset rewinds the stream to the first record.
func (s *SliceStream) Reset() { s.pos = 0 }

// Len returns the total number of records.
func (s *SliceStream) Len() int { return len(s.recs) }

// Collect drains a stream into a slice, up to max records (max <= 0
// means unlimited), with cooperative cancellation checked every few
// thousand records. The result slice is sized up front when the record
// count is knowable — from max, from the stream itself when it exposes
// Len(), or from a Reader whose source reports its size — so
// collection does not re-grow.
func Collect(ctx context.Context, s Stream, max int) ([]Record, error) {
	hint := 0
	switch s := s.(type) {
	case interface{ Len() int }:
		hint = s.Len()
	case *Reader:
		hint = s.records
	}
	if max > 0 && (hint == 0 || max < hint) {
		hint = max
	}
	out := make([]Record, 0, hint)
	for {
		if max > 0 && len(out) >= max {
			return out, nil
		}
		if len(out)%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return out, fmt.Errorf("trace: collect canceled after %d records: %w", len(out), err)
			}
		}
		r, err := s.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

// Validation errors returned by Validate.
var (
	ErrNonMonotonicID = errors.New("trace: record ids not strictly increasing")
	ErrForwardDep     = errors.New("trace: dependency references a later or same record")
	ErrUnknownDep     = errors.New("trace: dependency references an id never emitted")
)

// Validate checks the structural invariants of a record sequence:
// strictly increasing ids and dependencies that point strictly
// backwards to ids that exist. It reads the whole stream, with
// cooperative cancellation checked every few thousand records.
func Validate(ctx context.Context, s Stream) error {
	seen := make(map[uint64]struct{})
	first := true
	var prev uint64
	var n int
	for {
		if n++; n%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("trace: validate canceled after %d records: %w", n-1, err)
			}
		}
		r, err := s.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if !first && r.ID <= prev {
			return fmt.Errorf("%w: %d after %d", ErrNonMonotonicID, r.ID, prev)
		}
		if r.HasDep() {
			if r.Dep >= r.ID {
				return fmt.Errorf("%w: record %d depends on %d", ErrForwardDep, r.ID, r.Dep)
			}
			if _, ok := seen[r.Dep]; !ok {
				return fmt.Errorf("%w: record %d depends on missing %d", ErrUnknownDep, r.ID, r.Dep)
			}
		}
		seen[r.ID] = struct{}{}
		prev = r.ID
		first = false
	}
}

// Binary format: a fixed magic/version header followed by one
// variable-free 35-byte record encoding per reference. Little-endian
// throughout.
const (
	magic   = "D3DT"
	version = 1
	hdrSize = len(magic) + 1
	recSize = 8 + 8 + 8 + 8 + 1 + 1 + 1 // id, dep, addr, pc, cpu, kind, reps
)

// Writer encodes records to an io.Writer in the binary trace format.
type Writer struct {
	w      *bufio.Writer
	wrote  bool
	closed bool
	count  uint64
	// buf is the record encode scratch, kept on the struct for the same
	// reason as Reader.buf: bufio's io.Writer call would otherwise move
	// a local to the heap on every record.
	buf [recSize]byte
}

// NewWriter returns a Writer targeting w. Call Flush when done.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one record.
func (tw *Writer) Write(r Record) error {
	if tw.closed {
		return errors.New("trace: write after Flush")
	}
	if !tw.wrote {
		if _, err := tw.w.WriteString(magic); err != nil {
			return err
		}
		if err := tw.w.WriteByte(version); err != nil {
			return err
		}
		tw.wrote = true
	}
	buf := &tw.buf
	binary.LittleEndian.PutUint64(buf[0:], r.ID)
	binary.LittleEndian.PutUint64(buf[8:], r.Dep)
	binary.LittleEndian.PutUint64(buf[16:], r.Addr)
	binary.LittleEndian.PutUint64(buf[24:], r.PC)
	buf[32] = r.CPU
	buf[33] = byte(r.Kind)
	buf[34] = r.Reps
	if _, err := tw.w.Write(buf[:]); err != nil {
		return err
	}
	tw.count++
	return nil
}

// Count returns the number of records written so far.
func (tw *Writer) Count() uint64 { return tw.count }

// Flush writes the header (for an empty trace) and drains buffers. The
// writer is unusable afterwards.
func (tw *Writer) Flush() error {
	if tw.closed {
		return nil
	}
	if !tw.wrote {
		if _, err := tw.w.WriteString(magic); err != nil {
			return err
		}
		if err := tw.w.WriteByte(version); err != nil {
			return err
		}
		tw.wrote = true
	}
	tw.closed = true
	return tw.w.Flush()
}

// Reader decodes the binary trace format and implements Stream.
type Reader struct {
	r      *bufio.Reader
	header bool
	// records is the record count the source's size implies, 0 when
	// the source does not report its size; Collect presizes from it.
	records int
	// buf is the record decode scratch. Keeping it on the struct (rather
	// than a local) stops it escaping to a fresh heap allocation per
	// record: io.ReadFull's interface call pins a stack local otherwise.
	buf [recSize]byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r), records: recordsIn(r)}
}

// recordsIn counts the records r holds when r reports its size: the
// unread bytes of a source with Len (a bytes.Reader) or the size of a
// regular file. It is 0 for any other source.
func recordsIn(r io.Reader) int {
	var n int64
	switch src := r.(type) {
	case interface{ Len() int }:
		n = int64(src.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		st, err := src.Stat()
		if err != nil || !st.Mode().IsRegular() {
			return 0
		}
		n = st.Size()
	}
	if n <= int64(hdrSize) {
		return 0
	}
	return int((n - int64(hdrSize)) / recSize)
}

// Next implements Stream.
func (tr *Reader) Next() (Record, error) {
	if !tr.header {
		var hdr [hdrSize]byte
		if _, err := io.ReadFull(tr.r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return Record{}, fmt.Errorf("trace: truncated header: %w", io.ErrUnexpectedEOF)
			}
			return Record{}, err
		}
		if string(hdr[:4]) != magic {
			return Record{}, fmt.Errorf("trace: bad magic %q", hdr[:4])
		}
		if hdr[4] != version {
			return Record{}, fmt.Errorf("trace: unsupported version %d", hdr[4])
		}
		tr.header = true
	}
	buf := &tr.buf
	if _, err := io.ReadFull(tr.r, buf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Record{}, fmt.Errorf("trace: truncated record: %w", err)
		}
		return Record{}, err
	}
	r := Record{
		ID:   binary.LittleEndian.Uint64(buf[0:]),
		Dep:  binary.LittleEndian.Uint64(buf[8:]),
		Addr: binary.LittleEndian.Uint64(buf[16:]),
		PC:   binary.LittleEndian.Uint64(buf[24:]),
		CPU:  buf[32],
		Kind: Kind(buf[33]),
		Reps: buf[34],
	}
	if r.Kind > Ifetch {
		return Record{}, fmt.Errorf("trace: invalid kind %d in record %d", buf[33], r.ID)
	}
	return r, nil
}
