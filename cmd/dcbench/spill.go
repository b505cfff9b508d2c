package main

// The -spill sweep: the evidence record of spilled exploration. It streams
// the Dijkstra token ring's full state space (K^n states for ring -spill n)
// through explore.Scan at each budget in -spill-budgets, plus an in-RAM
// baseline, and prints one JSON document per line with throughput, peak
// RSS, and the spill counters — `make bench-spill` redirects the output to
// BENCH_spill.json. The ring is the sweep's subject because its state
// space grows as n^n: ring 8 fits RAM comfortably, ring 9 (387M states)
// already needs gigabytes for the in-RAM scan queue, and the sweep shows
// the budgeted runs completing inside their budgets instead.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"detcorr/internal/explore"
	"detcorr/internal/state"
	"detcorr/internal/tokenring"
)

// spillRow is one sweep measurement, encoded as a JSON line.
type spillRow struct {
	Ring         int     `json:"ring"`
	Budget       int64   `json:"budget_bytes"` // 0 = in-RAM baseline
	States       int     `json:"states"`
	Edges        int     `json:"edges"`
	Seconds      float64 `json:"seconds"`
	StatesPerSec float64 `json:"states_per_sec"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"` // VmHWM after the run; -1 if unreadable
	FrontierRuns int64   `json:"frontier_runs"`
	SpillBytes   int64   `json:"spill_bytes"`
	BloomHitRate float64 `json:"bloom_hit_rate"`
	ShardProbes  int64   `json:"shard_probes"`
	ShardMerges  int64   `json:"shard_merges"`
}

// runSpill sweeps the ring scan over the requested budgets (ascending),
// then the unbudgeted in-RAM baseline last. The order matters where the
// kernel refuses the peak-RSS reset (see spillMeasure): with monotone
// VmHWM, ascending budgets keep every row an honest figure for its own
// run, and the baseline — the largest resident set of the sweep by far —
// cannot taint the budgeted rows from the front.
func runSpill(ring int, budgets string, dir string, baseline bool) error {
	sys := tokenring.MustNew(ring, ring)
	var bs []int64
	for _, f := range strings.Split(budgets, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		b, err := explore.ParseByteSize(f)
		if err != nil {
			return fmt.Errorf("-spill-budgets: %w", err)
		}
		bs = append(bs, b)
	}
	if len(bs) == 0 {
		return fmt.Errorf("-spill-budgets: no budgets given")
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	enc := json.NewEncoder(out)
	for _, b := range bs {
		if err := spillMeasure(enc, sys, ring, b, dir); err != nil {
			return err
		}
		// Rows take minutes at ring 9; flush each as it lands so an
		// interrupted sweep still leaves its completed rows on record.
		if err := out.Flush(); err != nil {
			return err
		}
	}
	if baseline {
		if err := spillMeasure(enc, sys, ring, -1, dir); err != nil {
			return err
		}
	}
	return nil
}

// spillMeasure runs one full-space scan (budget -1 = in-RAM) and emits its
// row. Peak RSS is reset via /proc/self/clear_refs before the run where the
// kernel allows it, so the figure isolates this run's high-water mark;
// where it does not, VmHWM is the process-lifetime peak — still an honest
// upper bound for each row under runSpill's smallest-footprint-first
// order.
func spillMeasure(enc *json.Encoder, sys *tokenring.System, ring int, budget int64, dir string) error {
	resetPeakRSS()
	explore.ResetSpillCounters()
	opts := explore.ScanOptions{MemBudget: budget, SpillDir: dir}
	start := time.Now()
	stats, err := explore.Scan(sys.Ring, state.True, opts, explore.Scanner{})
	if err != nil {
		return fmt.Errorf("ring %d budget %d: %w", ring, budget, err)
	}
	secs := time.Since(start).Seconds()
	sc := explore.SpillCounters()
	row := spillRow{
		Ring:         ring,
		Budget:       max64(budget, 0),
		States:       stats.States,
		Edges:        stats.Edges,
		Seconds:      secs,
		StatesPerSec: float64(stats.States) / secs,
		PeakRSSBytes: peakRSS(),
		FrontierRuns: sc.FrontierRuns,
		SpillBytes:   sc.BytesSpilled,
		BloomHitRate: sc.BloomHitRate(),
		ShardProbes:  sc.ShardProbes,
		ShardMerges:  sc.ShardMerges,
	}
	return enc.Encode(row)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// peakRSS reads the process's high-water resident set (VmHWM) in bytes,
// or -1 where /proc is unavailable.
func peakRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return -1
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return -1
		}
		return kb << 10
	}
	return -1
}

// resetPeakRSS asks the kernel to reset VmHWM (clear_refs code 5); best
// effort — containers commonly refuse it.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
