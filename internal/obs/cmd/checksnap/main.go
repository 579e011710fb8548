// Command checksnap validates a -metrics-out JSONL file: every line
// must decode as an obs.Snapshot, the last line must be the final
// summary, and the required metric families must all be present. The
// default families cover a supervised campaign (memhier, thermal, dtm,
// fault, harness); other runs pass -families to require their own
// families instead (e.g. -families thermal,thermal_mg for a solve, or
// -families stackd for the service), and repeated -min name=value
// flags pin floors on individual final counters (e.g. -min
// stackd_cache_hits=1). verify.sh runs it against the solver,
// campaign and stackd smoke outputs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"diestack/internal/obs"
)

// minFlag accumulates repeated -min name=value counter floors.
type minFlag struct {
	names  []string
	floors map[string]uint64
}

func (m *minFlag) String() string { return strings.Join(m.names, ",") }

func (m *minFlag) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	v, err := strconv.ParseUint(val, 10, 64)
	if err != nil {
		return fmt.Errorf("bad value in %q: %w", s, err)
	}
	if m.floors == nil {
		m.floors = map[string]uint64{}
	}
	if _, dup := m.floors[name]; !dup {
		m.names = append(m.names, name)
	}
	m.floors[name] = v
	return nil
}

func main() {
	families := flag.String("families", "memhier,thermal,dtm,fault,harness",
		"comma-separated metric-name prefixes the final snapshot must contain")
	var mins minFlag
	flag.Var(&mins, "min",
		"counter floor on the final snapshot as name=value (repeatable)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: checksnap [-families a,b,...] [-min name=value]... <metrics.jsonl>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	var last obs.Snapshot
	lines := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		lines++
		var snap obs.Snapshot
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			fatal(fmt.Errorf("line %d: %w", lines, err))
		}
		last = snap
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if lines == 0 {
		fatal(fmt.Errorf("no snapshots in %s", flag.Arg(0)))
	}
	if !last.Final {
		fatal(fmt.Errorf("last snapshot is not the final summary"))
	}
	for _, fam := range strings.Split(*families, ",") {
		fam = strings.TrimSpace(fam)
		if fam == "" {
			continue
		}
		if !hasFamily(last, fam) {
			fatal(fmt.Errorf("final snapshot has no %s_* metrics", fam))
		}
	}
	for _, name := range mins.names {
		floor := mins.floors[name]
		if got := last.Counters[name]; got < floor {
			fatal(fmt.Errorf("final counter %s = %d, want >= %d", name, got, floor))
		}
	}
	fmt.Printf("checksnap: %d snapshot(s), %d counters, %d gauges, %d span kinds\n",
		lines, len(last.Counters), len(last.Gauges), len(last.SpanTotals))
}

func hasFamily(s obs.Snapshot, prefix string) bool {
	for name := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	for name := range s.Gauges {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "checksnap:", err)
	os.Exit(1)
}
