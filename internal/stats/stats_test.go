package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("streams from distinct seeds coincide %d/100 times", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.08 {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / 10000; mean < 0.45 || mean > 0.55 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(5)
	const p = 0.25
	sum := 0
	const trials = 50000
	for i := 0; i < trials; i++ {
		sum += r.Geometric(p)
	}
	mean := float64(sum) / trials
	if math.Abs(mean-1/p) > 0.15 {
		t.Errorf("Geometric(%v) mean = %v, want ~%v", p, mean, 1/p)
	}
}

func TestHistogramClamping(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64 // two land in bucket 0, two in the last
	}{
		{"finite", []float64{-1, 0.5, 11, 9.9}},
		{"infinite, huge and NaN", []float64{math.Inf(1), 1e300, math.Inf(-1), math.NaN()}},
	} {
		h := NewHistogram(0, 10, 5)
		for _, x := range tc.xs {
			h.Add(x)
		}
		if h.Count(0) != 2 || h.Count(4) != 2 || h.Total() != 4 {
			t.Errorf("%s: c0=%d c4=%d total=%d, want 2 2 4", tc.name, h.Count(0), h.Count(4), h.Total())
		}
	}
	h := NewHistogram(0, 10, 5)
	if h.Buckets() != 5 {
		t.Errorf("Buckets = %d, want 5", h.Buckets())
	}
	if h.BucketLow(1) != 2 {
		t.Errorf("BucketLow(1) = %v, want 2", h.BucketLow(1))
	}
}

func TestHistogramTotalMatchesCountsQuick(t *testing.T) {
	f := func(raw []int16) bool {
		h := NewHistogram(-100, 100, 20)
		for _, v := range raw {
			h.Add(float64(v))
		}
		var sum int64
		for i := 0; i < h.Buckets(); i++ {
			sum += h.Count(i)
		}
		return sum == h.Total() && h.Total() == int64(len(raw))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i) + 0.5)
	}
	if q := h.Quantile(0.5); q < 49 || q > 52 {
		t.Errorf("median = %v, want ~50", q)
	}
	if q := h.Quantile(0.99); q < 97 || q > 100 {
		t.Errorf("p99 = %v, want ~99", q)
	}
	if q := h.Quantile(0); q > 1.1 {
		t.Errorf("q0 = %v", q)
	}
	empty := NewHistogram(0, 10, 5)
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	// Clamping.
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Error("quantile clamping broken")
	}
}
