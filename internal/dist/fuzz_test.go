package dist

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"diestack/internal/harness"
)

// FuzzJournal feeds outside bytes — whatever a crash, a torn write or
// a bad disk left after a valid header — to openJournal. Opening must
// never panic. It either fails, or returns results that each name a
// job and leaves the file truncated to a prefix of what was there;
// reopening that prefix replays exactly the same results, and an
// append to it lands on a line boundary, so the next open replays one
// result more. Seeds live in testdata/fuzz/FuzzJournal.
func FuzzJournal(f *testing.F) {
	const jobs = 2
	hash := specHash([]byte("campaign"))
	header := append(mustJSON(journalHeader{Magic: journalMagic, Version: 1, SpecHash: hash, Jobs: jobs}), '\n')
	path := filepath.Join(f.TempDir(), "merge.journal")
	f.Fuzz(func(t *testing.T, tail []byte) {
		data := append(append([]byte(nil), header...), tail...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, results, err := openJournal(path, hash, jobs)
		if err != nil {
			return
		}
		j.Close()
		for i, r := range results {
			if r.Name == "" {
				t.Fatalf("result %d carries no job name: %+v", i, r)
			}
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("open left %d bytes that are not a prefix of the %d it read", len(kept), len(data))
		}

		j, again, err := openJournal(path, hash, jobs)
		if err != nil {
			t.Fatalf("reopening the truncated journal: %v", err)
		}
		if !reflect.DeepEqual(again, results) {
			t.Fatalf("reopen replayed %+v, want %+v", again, results)
		}
		if err := j.append(wireResult{Name: "job-1", Status: harness.StatusOK, Attempts: 1}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		j, after, err := openJournal(path, hash, jobs)
		if err != nil {
			t.Fatalf("reopening after an append: %v", err)
		}
		j.Close()
		if len(after) != len(results)+1 {
			t.Fatalf("after an append replayed %d results, want %d", len(after), len(results)+1)
		}
	})
}
