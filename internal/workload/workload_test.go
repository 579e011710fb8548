package workload

import (
	"context"
	"testing"

	"diestack/internal/trace"
)

func TestRegistryOrder(t *testing.T) {
	want := []string{"conj", "dSym", "gauss", "pcg", "sMVM", "sSym",
		"sTrans", "sAVDF", "sAVIF", "sUS", "svd", "svm"}
	got := Names()
	if len(got) != 12 {
		t.Fatalf("got %d benchmarks, want 12", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("benchmark %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestByName(t *testing.T) {
	b, ok := ByName("gauss")
	if !ok || b.Name != "gauss" || b.FitsIn4MB {
		t.Fatalf("ByName(gauss) = %+v, %v", b, ok)
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown benchmark found")
	}
}

func TestAllCopies(t *testing.T) {
	a := All()
	a[0].Name = "mutated"
	if All()[0].Name != "conj" {
		t.Fatal("All() exposes internal registry")
	}
}

func TestTracesValidate(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			recs := b.Generate(7, 0.15)
			if len(recs) == 0 {
				t.Fatal("empty trace")
			}
			if err := trace.Validate(context.Background(), trace.NewSliceStream(recs)); err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
		})
	}
}

func TestTwoThreadsPresent(t *testing.T) {
	for _, b := range All() {
		recs := b.Generate(1, 0.15)
		seen := map[uint8]bool{}
		for _, r := range recs {
			seen[r.CPU] = true
		}
		if !seen[0] || !seen[1] {
			t.Errorf("%s: threads present = %v, want both", b.Name, seen)
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, b := range All() {
		a := b.Generate(42, 0.12)
		c := b.Generate(42, 0.12)
		if len(a) != len(c) {
			t.Fatalf("%s: lengths differ across identical calls", b.Name)
		}
		for i := range a {
			if a[i] != c[i] {
				t.Fatalf("%s: record %d differs across identical calls", b.Name, i)
			}
		}
	}
}

func TestMixComposition(t *testing.T) {
	for _, b := range All() {
		recs := b.Generate(3, 0.15)
		m := Summarize(recs)
		if m.Loads == 0 {
			t.Errorf("%s: no loads", b.Name)
		}
		if m.Ifetches == 0 {
			t.Errorf("%s: no instruction fetches", b.Name)
		}
		if m.Deps == 0 {
			t.Errorf("%s: no dependencies", b.Name)
		}
		if b.Name != "svm" && m.Stores == 0 {
			// svm is a read-only scoring kernel; everything else writes.
			t.Errorf("%s: no stores", b.Name)
		}
	}
}

func TestFootprintPartition(t *testing.T) {
	// At reference scale the "fits" group must be under 4 MB and the
	// capacity-responsive group comfortably above the 12 MB stacked
	// SRAM option. This pins the Figure 5 shape.
	if testing.Short() {
		t.Skip("reference-scale generation is slow")
	}
	for _, b := range All() {
		fp := FootprintBytes(b.Generate(1, 1.0))
		if b.FitsIn4MB && fp >= 4<<20 {
			t.Errorf("%s: footprint %d MB should fit 4MB", b.Name, fp>>20)
		}
		if !b.FitsIn4MB && fp <= 12<<20 {
			t.Errorf("%s: footprint %d MB should exceed 12MB", b.Name, fp>>20)
		}
	}
}

// TestScaleZeroIsReference checks that scale 0, the catalog's default,
// generates every benchmark at the reference size record for record,
// in its sparse and FEM dimensions as in its dense ones.
func TestScaleZeroIsReference(t *testing.T) {
	if testing.Short() {
		t.Skip("reference-scale generation is slow")
	}
	for _, b := range All() {
		zero, ref := b.Stream(1, 0, nil), b.Stream(1, 1, nil)
		for n := 0; ; n++ {
			z, zerr := zero.Next()
			r, rerr := ref.Next()
			if zerr != rerr || z != r {
				t.Fatalf("%s: record %d at scale 0 is %+v (%v), at scale 1 %+v (%v)", b.Name, n, z, zerr, r, rerr)
			}
			if zerr != nil {
				break
			}
		}
	}
}

func TestScaleGrowsFootprint(t *testing.T) {
	b, _ := ByName("gauss")
	small := FootprintBytes(b.Generate(1, 0.1))
	large := FootprintBytes(b.Generate(1, 0.4))
	if large <= small {
		t.Fatalf("scale 0.4 footprint %d <= scale 0.1 footprint %d", large, small)
	}
}

// thread builds an emitter holding recs under local ids 0, 1, …, the
// way a kernel leaves one thread for interleave.
func thread(recs ...rec) *emitter {
	e := &emitter{}
	for _, r := range recs {
		e.push(r)
	}
	return e
}

func TestInterleaveRemapsDeps(t *testing.T) {
	th0 := thread(
		rec{dep: none, addr: 1},
		rec{dep: 0, addr: 2},
	)
	th1 := thread(
		rec{dep: none, addr: 3},
		rec{dep: 0, addr: 4},
	)
	out := interleave([2]*emitter{th0, th1})
	if len(out) != 4 {
		t.Fatalf("len = %d", len(out))
	}
	// Round-robin: t0r0, t1r0, t0r1, t1r1.
	if out[0].CPU != 0 || out[1].CPU != 1 || out[2].CPU != 0 || out[3].CPU != 1 {
		t.Fatalf("cpu order wrong: %v", out)
	}
	if out[2].Dep != 0 {
		t.Errorf("thread0 dep remap: got %d, want 0", out[2].Dep)
	}
	if out[3].Dep != 1 {
		t.Errorf("thread1 dep remap: got %d, want 1", out[3].Dep)
	}
	if err := trace.Validate(context.Background(), trace.NewSliceStream(out)); err != nil {
		t.Fatalf("interleaved trace invalid: %v", err)
	}
}

func TestInterleaveUnevenLengths(t *testing.T) {
	th0 := thread(rec{dep: none})
	th1 := thread(
		rec{dep: none}, rec{dep: none}, rec{dep: 1},
	)
	out := interleave([2]*emitter{th0, th1})
	if len(out) != 4 {
		t.Fatalf("len = %d", len(out))
	}
	if err := trace.Validate(context.Background(), trace.NewSliceStream(out)); err != nil {
		t.Fatalf("uneven interleave invalid: %v", err)
	}
	// t0r0, t1r0, then thread 1's tail; its dep on local 1 lands on
	// global 2.
	if out[3].CPU != 1 || out[3].Dep != 2 {
		t.Errorf("tail record = %v, want cpu1 dep=2", out[3])
	}
}

func TestInterleavePanicsOnForwardDep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("forward dep not rejected")
		}
	}()
	interleave([2]*emitter{thread(rec{dep: 5}), thread()})
}

// TestStreamDropsReadBlocks checks that a Stream lets go of each
// emitter block once its last record is read, and of no block before.
func TestStreamDropsReadBlocks(t *testing.T) {
	b, _ := ByName("gauss")
	ths := b.gen(1, 0.1, nil)
	s := newStream(ths)
	// Read both threads' first two blocks and one record of the third.
	for range 4*blockRecs + 1 {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for th, e := range ths {
		if len(e.blocks) < 4 {
			t.Fatalf("thread %d has %d blocks; the test needs 4", th, len(e.blocks))
		}
		for k, blk := range e.blocks[:4] {
			if read := k < 2; (blk == nil) != read {
				t.Errorf("thread %d block %d: dropped = %v, want %v", th, k, blk == nil, read)
			}
		}
	}
}

func TestRegionsDisjoint(t *testing.T) {
	// svm touches its support vectors, query region, and code region.
	b, _ := ByName("svm")
	regions := Regions(b.Generate(1, 0.15))
	if len(regions) < 3 {
		t.Fatalf("svm regions = %v, want at least 3", regions)
	}
}

func TestFootprintCounting(t *testing.T) {
	recs := []trace.Record{
		{Addr: 0}, {Addr: 63}, {Addr: 64}, {Addr: 128},
	}
	if got := Footprint(recs); got != 3 {
		t.Fatalf("Footprint = %d, want 3", got)
	}
	if got := FootprintBytes(recs); got != 192 {
		t.Fatalf("FootprintBytes = %d, want 192", got)
	}
}

func TestRepsPresent(t *testing.T) {
	// Dense kernels must mark same-line repeats; without them the
	// simulated L1 hit rates are meaningless.
	for _, name := range []string{"conj", "dSym", "gauss", "svm"} {
		b, _ := ByName(name)
		recs := b.Generate(1, 0.12)
		withReps := 0
		for _, r := range recs {
			if r.Reps > 0 {
				withReps++
			}
		}
		if float64(withReps)/float64(len(recs)) < 0.3 {
			t.Errorf("%s: only %d/%d records carry repeats", name, withReps, len(recs))
		}
	}
}
