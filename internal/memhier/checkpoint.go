package memhier

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"

	"diestack/internal/cache"
	"diestack/internal/dram"
	"diestack/internal/fault"
	"diestack/internal/stats"
	"diestack/internal/trace"
)

// Checkpoint file framing: a fixed header followed by a gob blob. The
// length and CRC let LoadCheckpoint refuse truncated or bit-flipped
// files instead of resuming from garbage.
const (
	checkpointMagic   = "D3CK"
	checkpointVersion = 1
)

var (
	// ErrCorruptCheckpoint marks a checkpoint file that is truncated,
	// bit-flipped, or not a checkpoint at all. Matched with errors.Is.
	ErrCorruptCheckpoint = errors.New("memhier: corrupt checkpoint")
	// ErrCheckpointMismatch marks a well-formed checkpoint that does not
	// belong to this simulator configuration or trace stream.
	ErrCheckpointMismatch = errors.New("memhier: checkpoint mismatch")
)

// DepEntry is one live slot of the sliding completion-time window.
// The window is stored sparsely: most of its 2^20 slots are empty for
// short runs, and gob would spend ten bytes on every empty sentinel.
type DepEntry struct {
	W  uint64 // window index
	ID uint64 // record id occupying the slot
	At int64  // completion cycle
}

// Checkpoint is a complete snapshot of a replay in flight: the loop
// state plus every stateful component of the simulator. Restoring it
// into a fresh Simulator built from the same Config and replaying the
// same trace from the saved position produces a Result bit-identical
// to an uninterrupted run.
type Checkpoint struct {
	Config Config
	// Records is the number of trace records consumed when the snapshot
	// was taken; resume skips this many records from the stream head.
	Records uint64
	// StreamHash digests every consumed record so resume can refuse a
	// different trace.
	StreamHash uint64

	// Replay loop state.
	Slot    []int64
	Done    []DepEntry
	MSHR    [][]int64
	MSHRPos []int
	ROB     [][]int64
	ROBPos  []int
	Refs    uint64
	Wall    int64
	SumLat  int64

	// Simulator component state.
	BusFree     int64
	OffDieBytes uint64
	Invals      uint64
	RepHits     uint64
	L1I, L1D    []cache.State
	L2          cache.State
	DArr        *dram.State // nil for SRAM L2
	Mem         dram.State
	Latencies   stats.HistogramState
	Faults      *fault.State // nil when injection is disabled
}

// checkpoint snapshots the simulator and loop state into the
// simulator's reusable scratch Checkpoint. All slices are deep-copied
// (reusing scratch capacity from previous snapshots) so the snapshot is
// immune to further replay; the returned pointer is only valid until
// the next checkpoint call.
func (s *Simulator) checkpoint(st *runState) *Checkpoint {
	cp := &s.cpScratch
	*cp = Checkpoint{
		Config:      s.cfg,
		Records:     st.records,
		StreamHash:  st.hash,
		Slot:        append(cp.Slot[:0], st.slot...),
		Done:        cp.Done[:0],
		MSHRPos:     append(cp.MSHRPos[:0], st.mshrPos...),
		ROBPos:      append(cp.ROBPos[:0], st.robPos...),
		MSHR:        cp.MSHR,
		ROB:         cp.ROB,
		L1I:         cp.L1I[:0],
		L1D:         cp.L1D[:0],
		Refs:        st.refs,
		Wall:        st.wall,
		SumLat:      st.sumLat,
		BusFree:     s.busFree,
		OffDieBytes: s.offDieBytes,
		Invals:      s.fe.invals,
		RepHits:     s.repHits,
		L2:          s.l2.State(),
		Mem:         s.mem.State(),
		Latencies:   s.latencies.State(),
	}
	for w, id := range s.fe.doneID {
		if id != emptySlot {
			cp.Done = append(cp.Done, DepEntry{W: uint64(w), ID: id, At: st.doneAt[w]})
		}
	}
	if len(cp.MSHR) != len(st.mshr) {
		cp.MSHR = make([][]int64, len(st.mshr))
	}
	for i := range st.mshr {
		cp.MSHR[i] = append(cp.MSHR[i][:0], st.mshr[i]...)
	}
	if len(cp.ROB) != len(st.rob) {
		cp.ROB = make([][]int64, len(st.rob))
	}
	for i := range st.rob {
		cp.ROB[i] = append(cp.ROB[i][:0], st.rob[i]...)
	}
	for i := 0; i < s.cfg.Cores; i++ {
		cp.L1I = append(cp.L1I, s.fe.l1i[i].State())
		cp.L1D = append(cp.L1D, s.fe.l1d[i].State())
	}
	if s.darr != nil {
		dst := s.darr.State()
		cp.DArr = &dst
	}
	if s.inj != nil {
		fst := s.inj.State()
		cp.Faults = &fst
	}
	return cp
}

// restore rebuilds the loop and simulator state from a checkpoint and
// positions the stream at the saved record, verifying along the way
// that the checkpoint belongs to this configuration and this trace.
func (s *Simulator) restore(st *runState, cp *Checkpoint, stream trace.Stream) error {
	if !reflect.DeepEqual(cp.Config, s.cfg) {
		return fmt.Errorf("%w: checkpoint was taken on a different machine configuration", ErrCheckpointMismatch)
	}
	// Shape checks: the config matched, so any disagreement here means
	// the blob was assembled inconsistently.
	cores := s.cfg.Cores
	if len(cp.Slot) != cores || len(cp.MSHR) != cores || len(cp.MSHRPos) != cores ||
		len(cp.ROB) != cores || len(cp.ROBPos) != cores ||
		len(cp.L1I) != cores || len(cp.L1D) != cores {
		return fmt.Errorf("%w: per-core state sized for %d cores, machine has %d",
			ErrCheckpointMismatch, len(cp.Slot), cores)
	}
	if (cp.DArr == nil) != (s.darr == nil) {
		return fmt.Errorf("%w: DRAM-array state presence disagrees with L2 type", ErrCheckpointMismatch)
	}
	if (cp.Faults == nil) != (s.inj == nil) {
		return fmt.Errorf("%w: fault-injector state presence disagrees with configuration", ErrCheckpointMismatch)
	}

	// Skip the stream to the checkpoint position, digesting the skipped
	// records so a checkpoint cannot silently resume a different trace.
	h := st.hash // FNV offset basis from newRunState
	for i := uint64(0); i < cp.Records; i++ {
		rec, err := stream.Next()
		if errors.Is(err, io.EOF) {
			return fmt.Errorf("%w: trace ends after %d records but checkpoint was taken at %d",
				ErrCheckpointMismatch, i, cp.Records)
		}
		if err != nil {
			return fmt.Errorf("memhier: reading trace while resuming: %w", err)
		}
		h = hashRecord(h, rec)
	}
	if h != cp.StreamHash {
		return fmt.Errorf("%w: trace content differs from the one the checkpoint was taken on", ErrCheckpointMismatch)
	}

	// Loop state.
	copy(st.slot, cp.Slot)
	// A window entry lives at its id's slot, one per slot; anything else
	// would silently drop or misdirect dependencies.
	for _, e := range cp.Done {
		if e.ID == emptySlot || e.W != e.ID%depWindow {
			return fmt.Errorf("%w: dependency-window entry for id %d sits in slot %d", ErrCheckpointMismatch, e.ID, e.W)
		}
		if s.fe.doneID[e.W] != emptySlot {
			return fmt.Errorf("%w: two dependency-window entries in slot %d", ErrCheckpointMismatch, e.W)
		}
		s.fe.doneID[e.W] = e.ID
		st.doneAt[e.W] = e.At
	}
	for i := 0; i < cores; i++ {
		if len(cp.MSHR[i]) != len(st.mshr[i]) || len(cp.ROB[i]) != len(st.rob[i]) {
			return fmt.Errorf("%w: core %d ring sizes differ", ErrCheckpointMismatch, i)
		}
		if p := cp.MSHRPos[i]; p < 0 || p >= len(st.mshr[i]) {
			return fmt.Errorf("%w: core %d MSHR position %d out of range", ErrCheckpointMismatch, i, p)
		}
		if p := cp.ROBPos[i]; p < 0 || p >= len(st.rob[i]) {
			return fmt.Errorf("%w: core %d reorder-window position %d out of range", ErrCheckpointMismatch, i, p)
		}
		copy(st.mshr[i], cp.MSHR[i])
		copy(st.rob[i], cp.ROB[i])
	}
	copy(st.mshrPos, cp.MSHRPos)
	copy(st.robPos, cp.ROBPos)
	st.records = cp.Records
	st.refs = cp.Refs
	st.wall = cp.Wall
	st.sumLat = cp.SumLat
	st.hash = cp.StreamHash

	// Component state.
	s.busFree = cp.BusFree
	s.offDieBytes = cp.OffDieBytes
	s.fe.invals = cp.Invals
	s.repHits = cp.RepHits
	for i := 0; i < cores; i++ {
		if err := s.fe.l1i[i].Restore(cp.L1I[i]); err != nil {
			return fmt.Errorf("%w: L1I[%d]: %v", ErrCheckpointMismatch, i, err)
		}
		if err := s.fe.l1d[i].Restore(cp.L1D[i]); err != nil {
			return fmt.Errorf("%w: L1D[%d]: %v", ErrCheckpointMismatch, i, err)
		}
	}
	if err := s.l2.Restore(cp.L2); err != nil {
		return fmt.Errorf("%w: L2: %v", ErrCheckpointMismatch, err)
	}
	if cp.DArr != nil {
		if err := s.darr.Restore(*cp.DArr); err != nil {
			return fmt.Errorf("%w: DRAM array: %v", ErrCheckpointMismatch, err)
		}
	}
	if err := s.mem.Restore(cp.Mem); err != nil {
		return fmt.Errorf("%w: memory: %v", ErrCheckpointMismatch, err)
	}
	if err := s.latencies.Restore(cp.Latencies); err != nil {
		return fmt.Errorf("%w: latency histogram: %v", ErrCheckpointMismatch, err)
	}
	if cp.Faults != nil {
		if err := s.inj.Restore(*cp.Faults); err != nil {
			return fmt.Errorf("%w: fault injector: %v", ErrCheckpointMismatch, err)
		}
	}
	return nil
}

// SaveCheckpoint writes the checkpoint to path atomically: the framed
// blob goes to a temporary file in the same directory which is then
// renamed over path, so a kill mid-write never destroys the previous
// snapshot.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	var buf bytes.Buffer
	return saveCheckpoint(path, cp, &buf)
}

// saveCheckpoint is SaveCheckpoint with a caller-supplied encode
// buffer, so the periodic-snapshot path can reuse one buffer across
// the run instead of growing a fresh one per checkpoint.
func saveCheckpoint(path string, cp *Checkpoint, buf *bytes.Buffer) error {
	if err := encodeCheckpoint(buf, cp); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("memhier: creating checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return fmt.Errorf("memhier: writing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("memhier: closing checkpoint temp file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("memhier: installing checkpoint: %w", err)
	}
	return nil
}

// encodeCheckpoint frames cp into buf, reusing buf's capacity: the
// magic and a reserved header go in first, the gob blob is encoded
// directly behind them, and the header's length and CRC fields are
// patched in place once the blob size is known.
func encodeCheckpoint(buf *bytes.Buffer, cp *Checkpoint) error {
	buf.Reset()
	buf.WriteString(checkpointMagic)
	var hdr [16]byte
	buf.Write(hdr[:]) // patched below
	if err := gob.NewEncoder(buf).Encode(cp); err != nil {
		return fmt.Errorf("memhier: encoding checkpoint: %w", err)
	}
	framed := buf.Bytes()
	blob := framed[len(checkpointMagic)+16:]
	h := framed[len(checkpointMagic):]
	binary.BigEndian.PutUint32(h[0:4], checkpointVersion)
	binary.BigEndian.PutUint64(h[4:12], uint64(len(blob)))
	binary.BigEndian.PutUint32(h[12:16], crc32.ChecksumIEEE(blob))
	return nil
}

// LoadCheckpoint reads and validates a checkpoint file. Truncated or
// bit-flipped files fail with an error matching ErrCorruptCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("memhier: reading checkpoint: %w", err)
	}
	return decodeCheckpoint(path, raw)
}

// decodeCheckpoint validates the header, length and CRC of the framed
// checkpoint raw, read from the named file, and decodes its gob
// payload. Every error matches ErrCorruptCheckpoint.
func decodeCheckpoint(name string, raw []byte) (*Checkpoint, error) {
	if len(raw) < len(checkpointMagic)+16 {
		return nil, fmt.Errorf("%w: file %q is %d bytes, shorter than the header", ErrCorruptCheckpoint, name, len(raw))
	}
	if string(raw[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("%w: %q is not a checkpoint file (bad magic)", ErrCorruptCheckpoint, name)
	}
	hdr := raw[len(checkpointMagic):]
	version := binary.BigEndian.Uint32(hdr[0:4])
	if version != checkpointVersion {
		return nil, fmt.Errorf("%w: unsupported checkpoint version %d (want %d)", ErrCorruptCheckpoint, version, checkpointVersion)
	}
	length := binary.BigEndian.Uint64(hdr[4:12])
	sum := binary.BigEndian.Uint32(hdr[12:16])
	blob := hdr[16:]
	if uint64(len(blob)) != length {
		return nil, fmt.Errorf("%w: truncated file: header names %d payload bytes, found %d", ErrCorruptCheckpoint, length, len(blob))
	}
	if crc32.ChecksumIEEE(blob) != sum {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorruptCheckpoint)
	}
	var cp Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&cp); err != nil {
		return nil, fmt.Errorf("%w: decoding payload: %v", ErrCorruptCheckpoint, err)
	}
	return &cp, nil
}
