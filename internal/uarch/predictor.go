package uarch

import "fmt"

// PredictorConfig enables a real branch predictor in the pipeline
// model. When a Config carries one, branch redirects are decided by a
// gshare predictor fed with each branch's PC and outcome, instead of
// the trace's Mispredicted annotations — the difference between
// replaying a machine's mispredictions and modeling them.
type PredictorConfig struct {
	// TableBits sizes the pattern table: 2^TableBits two-bit counters
	// (12 bits / 4K entries is typical for the era).
	TableBits int
	// HistoryBits is the global-history length mixed into the index
	// (0..TableBits). Short histories favour per-branch bias learning;
	// long ones capture correlated patterns but dilute training.
	HistoryBits int
}

// Validate reports configuration errors.
func (p PredictorConfig) Validate() error {
	if p.TableBits < 1 || p.TableBits > 24 {
		return fmt.Errorf("uarch: TableBits must be in [1,24], got %d", p.TableBits)
	}
	if p.HistoryBits < 0 || p.HistoryBits > p.TableBits {
		return fmt.Errorf("uarch: HistoryBits must be in [0,TableBits], got %d", p.HistoryBits)
	}
	return nil
}

// gshare is the classic global-history XOR predictor with 2-bit
// saturating counters; the history is aligned to the high index bits
// so short histories leave the per-PC mapping mostly intact.
type gshare struct {
	table     []uint8
	mask      uint32
	history   uint32
	histMask  uint32
	histShift uint
}

func newGshare(cfg PredictorConfig) *gshare {
	size := 1 << cfg.TableBits
	g := &gshare{
		table:     make([]uint8, size),
		mask:      uint32(size - 1),
		histMask:  uint32(1<<cfg.HistoryBits - 1),
		histShift: uint(cfg.TableBits - cfg.HistoryBits),
	}
	for i := range g.table {
		g.table[i] = 2 // weakly taken
	}
	return g
}

func (g *gshare) index(pc uint32) uint32 {
	return (pc ^ (g.history << g.histShift)) & g.mask
}

// predict returns the predicted direction for pc.
func (g *gshare) predict(pc uint32) bool {
	return g.table[g.index(pc)] >= 2
}

// update trains the counter and shifts the outcome into the history.
func (g *gshare) update(pc uint32, taken bool) {
	idx := g.index(pc)
	c := g.table[idx]
	if taken {
		if c < 3 {
			c++
		}
	} else {
		if c > 0 {
			c--
		}
	}
	g.table[idx] = c
	g.history = (g.history << 1) & g.histMask
	if taken {
		g.history |= 1
	}
}
