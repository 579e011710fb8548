package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"diestack/internal/leakcheck"
)

// TestCounterConcurrent hammers one counter from 8 goroutines and
// checks that no increment is lost (run under -race in CI).
func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hits")
	const goroutines, perG = 8, 100_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := reg.CounterValue("hits"); got != goroutines*perG {
		t.Fatalf("CounterValue = %d, want %d", got, goroutines*perG)
	}
}

// TestHistogramConcurrent checks bucket placement under 8 concurrent
// observers, then that out-of-range samples, infinities and NaN
// included, clamp into the edge buckets without a panic.
func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", 0, 100, 10)
	const goroutines, perG = 8, 50_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g*10) + 5) // one bucket per goroutine
			}
		}()
	}
	for range 10 {
		reg.Snapshot(false) // reads the buckets while they are observed
	}
	wg.Wait()
	want := make([]uint64, 10)
	for i := 0; i < goroutines; i++ {
		want[i] = perG
	}
	if got := reg.Snapshot(false).Histograms["lat"].Counts; !slices.Equal(got, want) {
		t.Fatalf("counts = %v, want %v", got, want)
	}
	for _, v := range []float64{-5, math.Inf(-1), math.NaN(), 1e9, 1e300, math.Inf(1)} {
		h.Observe(v)
	}
	want[0], want[9] = perG+3, 3
	if got := reg.Snapshot(false).Histograms["lat"].Counts; !slices.Equal(got, want) {
		t.Fatalf("counts after clamp = %v, want %v", got, want)
	}
}

// TestHistogramObserveN checks that ObserveN(v, n) lands where n
// Observe(v) calls land, clamping included.
func TestHistogramObserveN(t *testing.T) {
	reg := NewRegistry()
	one, bulk := reg.Histogram("one", 0, 100, 10), reg.Histogram("bulk", 0, 100, 10)
	for _, v := range []float64{-5, 0, 9.9, 10, 55, 99.9, 100, 1e9} {
		for range 3 {
			one.Observe(v)
		}
		bulk.ObserveN(v, 3)
	}
	bulk.ObserveN(42, 0)
	snap := reg.Snapshot(false)
	if a, b := snap.Histograms["one"].Counts, snap.Histograms["bulk"].Counts; !slices.Equal(a, b) {
		t.Errorf("ObserveN counts %v, Observe %v", b, a)
	}
}

func TestGaugeAddConcurrent(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("depth")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				g.Add(1)
				g.Add(-1)
			}
			g.Add(2)
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 16 {
		t.Fatalf("gauge = %v, want 16", got)
	}
}

// TestSnapshotJSONLRoundTrip exports a populated registry as JSONL and
// decodes every line back, checking the final summary carries the data.
func TestSnapshotJSONLRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("memhier_records").Add(42)
	reg.Gauge("thermal_peak_c").Set(91.5)
	reg.Histogram("lat", 0, 10, 5).Observe(3)
	root := reg.StartSpan("core/run")
	reg.StartSpan("memhier/replay").End()
	root.End()

	var buf bytes.Buffer
	e := NewExporter(reg, &buf, 0)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	reg.Counter("memhier_records").Add(8)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err) // idempotent
	}

	dec := json.NewDecoder(&buf)
	var snaps []Snapshot
	for {
		var s Snapshot
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decode: %v", err)
		}
		snaps = append(snaps, s)
	}
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots, want 2", len(snaps))
	}
	first, last := snaps[0], snaps[1]
	if first.Final || !last.Final {
		t.Fatalf("final flags wrong: %v %v", first.Final, last.Final)
	}
	if first.Counters["memhier_records"] != 42 || last.Counters["memhier_records"] != 50 {
		t.Fatalf("counter progression wrong: %v %v", first.Counters, last.Counters)
	}
	if last.Gauges["thermal_peak_c"] != 91.5 {
		t.Fatalf("gauge = %v", last.Gauges["thermal_peak_c"])
	}
	if h, ok := last.Histograms["lat"]; !ok || len(h.Counts) != 5 || h.Counts[1] != 1 {
		t.Fatalf("histogram data wrong: %+v", h)
	}
	// Spans drain into the first snapshot that sees them; totals persist.
	if len(first.Spans) != 2 {
		t.Fatalf("first snapshot has %d spans, want 2", len(first.Spans))
	}
	if len(last.Spans) != 0 {
		t.Fatalf("spans were not drained: %+v", last.Spans)
	}
	if tot := last.SpanTotals["core/run"]; tot.Count != 1 {
		t.Fatalf("span totals missing: %+v", last.SpanTotals)
	}
}

// TestNoopAllocs asserts the disabled path — nil registry, nil
// instruments — allocates nothing on the hot paths.
func TestNoopAllocs(t *testing.T) {
	var reg *Registry // disabled
	c := reg.Counter("x")
	g := reg.Gauge("y")
	h := reg.Histogram("z", 0, 1, 4)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1.5)
		g.Add(1)
		h.Observe(0.5)
		h.ObserveN(0.5, 2)
		reg.StartSpan("phase").End()
		_ = c.Value()
		_ = reg.CounterValue("x")
		_ = reg.Snapshot(false).Final
	})
	if allocs != 0 {
		t.Fatalf("no-op path allocates %v/op, want 0", allocs)
	}
}

// TestEnabledCounterAllocs asserts the enabled counter hot path is
// also allocation-free.
func TestEnabledCounterAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x")
	h := reg.Histogram("h", 0, 10, 4)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(3)
	})
	if allocs != 0 {
		t.Fatalf("enabled counter path allocates %v/op, want 0", allocs)
	}
}

// TestSpanRingBounded overfills the ring and checks the drain stays
// bounded while totals keep counting.
func TestSpanRingBounded(t *testing.T) {
	reg := NewRegistry()
	const n = spanRingCap + 100
	for i := 0; i < n; i++ {
		reg.StartSpan("tick").End()
	}
	snap := reg.Snapshot(false)
	if len(snap.Spans) != spanRingCap {
		t.Fatalf("ring drained %d records, want %d", len(snap.Spans), spanRingCap)
	}
	if tot := snap.SpanTotals["tick"]; tot.Count != n {
		t.Fatalf("totals = %d, want %d", tot.Count, n)
	}
}

func TestProgressLine(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge(MetricJobsTotal).Set(10)
	reg.Counter(MetricJobsDone).Add(4)
	reg.Counter(MetricJobsFailed).Inc()
	reg.Gauge(MetricPeakC).Set(88.25)
	var buf bytes.Buffer
	p := NewProgress(reg, &buf, time.Hour)
	line := p.Line()
	p.Close()
	p.Close() // idempotent
	for _, want := range []string{"jobs 4/10", "(1 failed)", "peak 88.2C", "eta"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Fatalf("Close did not terminate the line: %q", buf.String())
	}
}

// TestCloseStopsLoops: Exporter.Close and Progress.Close stop their
// periodic loops, so no goroutine outlives them.
func TestCloseStopsLoops(t *testing.T) {
	base := runtime.NumGoroutine()
	reg := NewRegistry()
	e := NewExporter(reg, io.Discard, time.Millisecond)
	p := NewProgress(reg, io.Discard, time.Millisecond)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	leakcheck.Settle(t, base)
}
