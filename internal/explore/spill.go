package explore

// Exploration under a memory budget ("Beyond RAM"). Without a budget an
// exploration holds three structures that grow with the state space: the
// visited set, the BFS frontier, and (for Build) the CSR arenas. Under a
// budget the exploration's store (store.go) moves the first two out of RAM:
//
//   - the visited set is partitioned by state index (spillvisited.go): a
//     dense bitset front when it fits the budget, Bloom-fronted sorted shard
//     files when it does not;
//   - the frontier is double-buffered to framed, CRC-checked run files
//     (spillfile.go) whenever a level outgrows its in-RAM buffer, and so are
//     the engine's outboxes and FindDeadlock's parent log.
//
// The engine (exploreBFS) and the streaming scan are the same code in RAM
// and under a budget; only the store differs. The spilled frontier keeps
// the in-RAM frontier's exact FIFO order, so Scan's visit order and
// witnesses coincide, and assemble()'s canonical renumbering (node ids
// ascend with state index) makes a Graph byte-identical either way.
//
// The CSR arenas of a Build still materialize in RAM — a Graph is an in-RAM
// artifact. Verdicts over super-RAM systems therefore go through Scan and
// FindDeadlock, which stream visitors over the kernel without assembling a
// graph; for those, the resident set is the visited front plus the run-file
// buffers, and the budget holds regardless of state count.

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Process-wide spill counters (see SpillCounters). All are monotone;
// instance-local tallies are folded in when a spilled exploration finishes,
// so the hot claim path pays no atomic per state. Explorations in RAM leave
// them untouched.
var (
	spillFrontierRuns atomic.Int64
	spillBytes        atomic.Int64
	spillFrontHits    atomic.Int64
	spillFrontMisses  atomic.Int64
	spillShardProbes  atomic.Int64
	spillShardMerges  atomic.Int64
)

// SpillStats is a snapshot of the spilled explorations' counters.
type SpillStats struct {
	FrontierRuns int64 // framed chunks flushed to spill files
	BytesSpilled int64 // bytes written to spill files (frontier runs, shards, parent logs)
	FrontHits    int64 // visited claims resolved by the in-RAM front (bitset or Bloom)
	FrontMisses  int64 // claims that had to consult deeper layers
	ShardProbes  int64 // binary-search probes of shard files (disk)
	ShardMerges  int64 // delta-into-shard-file merge passes
}

// BloomHitRate is the fraction of visited claims the in-RAM front resolved
// without touching deeper layers; 1 means the claim path never left RAM.
func (s SpillStats) BloomHitRate() float64 {
	if s.FrontHits+s.FrontMisses == 0 {
		return 1
	}
	return float64(s.FrontHits) / float64(s.FrontHits+s.FrontMisses)
}

// SpillCounters returns a snapshot of the process-wide spill counters.
func SpillCounters() SpillStats {
	return SpillStats{
		FrontierRuns: spillFrontierRuns.Load(),
		BytesSpilled: spillBytes.Load(),
		FrontHits:    spillFrontHits.Load(),
		FrontMisses:  spillFrontMisses.Load(),
		ShardProbes:  spillShardProbes.Load(),
		ShardMerges:  spillShardMerges.Load(),
	}
}

// ResetSpillCounters zeroes the spill counters (benchmarks and tests).
func ResetSpillCounters() {
	spillFrontierRuns.Store(0)
	spillBytes.Store(0)
	spillFrontHits.Store(0)
	spillFrontMisses.Store(0)
	spillShardProbes.Store(0)
	spillShardMerges.Store(0)
}

// The process-wide default spill configuration, set by long-running hosts
// (dcserved) and CLI flags (dctl -mem-budget) the same way
// SetDefaultParallelism sets the default worker count: Options/ScanOptions
// whose MemBudget is zero inherit it. A budget is not a mode switch —
// explorations that fit the budget never touch disk — so raising the
// default process-wide is safe for small systems and turns builds that
// would outgrow RAM into spilled ones instead of unbounded growth.
var (
	defaultSpillMu     sync.Mutex
	defaultSpillBudget int64
	defaultSpillDir    string
)

// SetDefaultSpill sets the process-wide default memory budget (bytes) and
// spill directory used when Options.MemBudget is zero, returning the
// previous values so callers can restore them. A budget of 0 restores
// in-RAM exploration as the default; dir "" means the OS temp directory.
func SetDefaultSpill(budget int64, dir string) (int64, string) {
	defaultSpillMu.Lock()
	defer defaultSpillMu.Unlock()
	pb, pd := defaultSpillBudget, defaultSpillDir
	if budget < 0 {
		budget = 0
	}
	defaultSpillBudget, defaultSpillDir = budget, dir
	return pb, pd
}

// DefaultSpill returns the current process-wide spill defaults.
func DefaultSpill() (int64, string) {
	defaultSpillMu.Lock()
	defer defaultSpillMu.Unlock()
	return defaultSpillBudget, defaultSpillDir
}

// ParseByteSize parses a human byte count with an optional K/M/G suffix
// (binary: K = 1024) into bytes — the format of every -mem-budget flag
// (dctl, dcserved, dcbench).
func ParseByteSize(s string) (int64, error) {
	mult := int64(1)
	num := s
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, num = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, num = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, num = 1<<30, s[:len(s)-1]
	}
	v, err := strconv.ParseInt(num, 10, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("want a positive byte count like 512K, 64M, or 2G, got %q", s)
	}
	return v * mult, nil
}

// resolveSpill merges explicit fields with the process defaults into the
// budget and spill directory an exploration runs under. memBudget > 0 asks
// for a spilled exploration; < 0 keeps it in RAM even when a process
// default is set; 0 defers to the default. A zero result budget means RAM.
func resolveSpill(memBudget int64, dir string) (int64, string) {
	if memBudget == 0 {
		db, dd := DefaultSpill()
		memBudget = db
		if dir == "" {
			dir = dd
		}
	}
	if memBudget <= 0 {
		return 0, ""
	}
	return max(memBudget, spillMinBudget), dir
}

// defaultSpillPartitions is the visited-set partition count: enough slices
// to feed a wide worker pool and keep individual shard files moderate, few
// enough that per-partition Bloom fronts stay usefully large. Partitions
// are assigned to workers by ownership, so the count also caps the worker
// count.
const defaultSpillPartitions = 64

// spillMinBudget floors the effective budget so the structure arithmetic
// (Bloom sizes, buffer splits) stays sane; budgets below it behave like it.
const spillMinBudget = 1 << 16
