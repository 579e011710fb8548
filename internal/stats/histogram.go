package stats

// Histogram bins observations into fixed-width buckets over [lo, hi).
// Observations outside the range clamp into the first/last bucket so
// no sample is silently dropped: values at or above hi (+Inf included)
// land in the last bucket, values at or below lo, -Inf and NaN in the
// first. It is not safe for concurrent use; obs.Histogram wraps one in
// a mutex.
type Histogram struct {
	lo, hi, width float64
	counts        []int64
	total         int64
}

// NewHistogram creates a histogram with n buckets spanning [lo, hi).
// It panics on an invalid shape.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || !(hi > lo) {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{lo: lo, hi: hi, width: (hi - lo) / float64(n), counts: make([]int64, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) { h.AddN(x, 1) }

// AddN records n observations of x. The range checks compare floats
// before the index is converted, so an infinite or huge x cannot
// overflow the conversion.
func (h *Histogram) AddN(x float64, n int64) {
	i := 0
	if x >= h.hi {
		i = len(h.counts) - 1
	} else if x > h.lo {
		i = min(int((x-h.lo)/h.width), len(h.counts)-1)
	}
	h.counts[i] += n
	h.total += n
}

// Reset empties the histogram, keeping its buckets.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.total = 0
}

// Range returns the lo and hi the histogram was built with.
func (h *Histogram) Range() (lo, hi float64) { return h.lo, h.hi }

// Count returns the count in bucket i.
func (h *Histogram) Count(i int) int64 { return h.counts[i] }

// Total returns the number of observations recorded.
func (h *Histogram) Total() int64 { return h.total }

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.counts) }

// BucketLow returns the lower bound of bucket i.
func (h *Histogram) BucketLow(i int) float64 { return h.lo + float64(i)*h.width }

// Quantile returns the approximate q-quantile (q in [0,1]) of the
// recorded observations: the value at the position within the bucket
// where the cumulative count crosses q, linearly interpolated. It
// returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.total)
	var cum float64
	for i, c := range h.counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			frac := (target - cum) / float64(c)
			return h.BucketLow(i) + frac*h.width
		}
		cum = next
	}
	return h.BucketLow(len(h.counts)-1) + h.width
}
