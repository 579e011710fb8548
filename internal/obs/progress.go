package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Conventional metric names shared between the packages that publish
// them (harness, thermal) and the progress reporter that reads them.
const (
	// MetricJobsTotal is a gauge: jobs submitted to the campaign.
	MetricJobsTotal = "harness_jobs_total"
	// MetricJobsDone is a counter: jobs finished (any status).
	MetricJobsDone = "harness_jobs_done"
	// MetricJobsFailed is a counter: jobs whose final status was not ok.
	MetricJobsFailed = "harness_jobs_failed"
	// MetricPeakC is a gauge: the most recent peak die temperature.
	MetricPeakC = "thermal_peak_c"
)

// Progress renders a live one-line campaign summary — jobs
// done/failed, ETA from the completion rate, and the current
// peak temperature — redrawn in place with a carriage return. Close
// prints the final state on its own line.
type Progress struct {
	reg      *Registry
	w        io.Writer
	interval time.Duration
	start    time.Time

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewProgress starts a reporter over reg writing to w every interval
// (<= 0 selects 500ms).
func NewProgress(reg *Registry, w io.Writer, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	p := &Progress{
		reg:      reg,
		w:        w,
		interval: interval,
		start:    time.Now(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go p.loop()
	return p
}

func (p *Progress) loop() {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			fmt.Fprintf(p.w, "\r%s", p.Line())
		case <-p.stop:
			return
		}
	}
}

// Close stops the reporter and prints the final line. Idempotent.
func (p *Progress) Close() {
	p.stopOnce.Do(func() {
		close(p.stop)
		<-p.done
		fmt.Fprintf(p.w, "\r%s\n", p.Line())
	})
}

// Line formats the current progress state.
func (p *Progress) Line() string {
	done := p.reg.CounterValue(MetricJobsDone)
	failed := p.reg.CounterValue(MetricJobsFailed)
	total := uint64(p.reg.GaugeValue(MetricJobsTotal))
	peak := p.reg.GaugeValue(MetricPeakC)
	elapsed := time.Since(p.start).Round(time.Second)

	var b strings.Builder
	if total > 0 {
		fmt.Fprintf(&b, "jobs %d/%d", done, total)
	} else {
		fmt.Fprintf(&b, "jobs %d", done)
	}
	if failed > 0 {
		fmt.Fprintf(&b, " (%d failed)", failed)
	}
	if peak != 0 {
		fmt.Fprintf(&b, "  peak %.1fC", peak)
	}
	fmt.Fprintf(&b, "  elapsed %s", elapsed)
	if done > 0 && total > done {
		eta := time.Duration(float64(time.Since(p.start)) / float64(done) * float64(total-done)).Round(time.Second)
		fmt.Fprintf(&b, "  eta %s", eta)
	}
	return b.String()
}
