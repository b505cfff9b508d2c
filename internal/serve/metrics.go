package serve

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"detcorr/internal/explore"
	"detcorr/internal/verify"
)

// metrics is the server's hand-rolled instrument panel, exported in the
// Prometheus text format by handleMetrics. Counters are atomics; the only
// lock guards the by-status-code map, which sees one touch per request.
type metrics struct {
	mu    sync.Mutex
	codes map[int]int64

	hits, misses, joins atomic.Int64
	inFlight            atomic.Int64
	tenantEvictions     atomic.Int64

	// Decisions by the ladder rung that made them (verify.Rungs order).
	rungs [len(verify.Rungs)]atomic.Int64

	// Revision-pipeline counters (POST /v1/revise and Advance).
	verdictsPreserved   atomic.Int64
	verdictsInvalidated atomic.Int64
	graphsRebound       atomic.Int64
	graphsRepaired      atomic.Int64
	graphsRebuilt       atomic.Int64

	evalCount atomic.Int64
	evalSumNs atomic.Int64
	evalBkt   [len(evalBuckets)]atomic.Int64
}

// evalBuckets are the upper bounds (seconds) of the evaluation latency
// histogram; the implicit final bucket is +Inf.
var evalBuckets = [...]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

func (m *metrics) observe(code int, cacheState string, _ time.Duration) {
	m.mu.Lock()
	if m.codes == nil {
		m.codes = map[int]int64{}
	}
	m.codes[code]++
	m.mu.Unlock()
	switch cacheState {
	case "hit":
		m.hits.Add(1)
	case "miss":
		m.misses.Add(1)
	case "join":
		m.joins.Add(1)
	}
}

func (m *metrics) observeRung(r verify.Rung) {
	for i, known := range verify.Rungs {
		if known == r {
			m.rungs[i].Add(1)
			return
		}
	}
}

func (m *metrics) observeEval(d time.Duration) {
	m.evalCount.Add(1)
	m.evalSumNs.Add(int64(d))
	sec := d.Seconds()
	for i, le := range evalBuckets {
		if sec <= le {
			m.evalBkt[i].Add(1)
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m := &s.met

	fmt.Fprintln(w, "# HELP dcserved_requests_total Completed HTTP requests by status code.")
	fmt.Fprintln(w, "# TYPE dcserved_requests_total counter")
	m.mu.Lock()
	codes := make([]int, 0, len(m.codes))
	for c := range m.codes {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(w, "dcserved_requests_total{code=%q} %d\n", fmt.Sprint(c), m.codes[c])
	}
	m.mu.Unlock()

	fmt.Fprintln(w, "# HELP dcserved_verdicts_total Verdicts served, by how they were obtained.")
	fmt.Fprintln(w, "# TYPE dcserved_verdicts_total counter")
	fmt.Fprintf(w, "dcserved_verdicts_total{cache=\"hit\"} %d\n", m.hits.Load())
	fmt.Fprintf(w, "dcserved_verdicts_total{cache=\"miss\"} %d\n", m.misses.Load())
	fmt.Fprintf(w, "dcserved_verdicts_total{cache=\"join\"} %d\n", m.joins.Load())

	fmt.Fprintln(w, "# HELP dcserved_decisions_total Verdicts decided, by the ladder rung that decided them.")
	fmt.Fprintln(w, "# TYPE dcserved_decisions_total counter")
	for i, r := range verify.Rungs {
		fmt.Fprintf(w, "dcserved_decisions_total{rung=%q} %d\n", r, m.rungs[i].Load())
	}

	fmt.Fprintln(w, "# HELP dcserved_in_flight Evaluations currently running.")
	fmt.Fprintln(w, "# TYPE dcserved_in_flight gauge")
	fmt.Fprintf(w, "dcserved_in_flight %d\n", int64(len(s.sem)))

	fmt.Fprintln(w, "# HELP dcserved_draining Whether the server is refusing new verdicts.")
	fmt.Fprintln(w, "# TYPE dcserved_draining gauge")
	drain := 0
	if s.isDraining() {
		drain = 1
	}
	fmt.Fprintf(w, "dcserved_draining %d\n", drain)

	fmt.Fprintln(w, "# HELP dcserved_programs_resident Distinct compiled programs kept resident.")
	fmt.Fprintln(w, "# TYPE dcserved_programs_resident gauge")
	fmt.Fprintf(w, "dcserved_programs_resident %d\n", s.programs.resident())

	fmt.Fprintln(w, "# HELP dcserved_tenant_evictions_total Programs evicted by per-tenant budgets.")
	fmt.Fprintln(w, "# TYPE dcserved_tenant_evictions_total counter")
	fmt.Fprintf(w, "dcserved_tenant_evictions_total %d\n", m.tenantEvictions.Load())

	fmt.Fprintln(w, "# HELP dcserved_invalidate_verdicts_total Memoized verdicts audited by revisions, by outcome.")
	fmt.Fprintln(w, "# TYPE dcserved_invalidate_verdicts_total counter")
	fmt.Fprintf(w, "dcserved_invalidate_verdicts_total{outcome=\"preserved\"} %d\n", m.verdictsPreserved.Load())
	fmt.Fprintf(w, "dcserved_invalidate_verdicts_total{outcome=\"invalidated\"} %d\n", m.verdictsInvalidated.Load())

	fmt.Fprintln(w, "# HELP dcserved_invalidate_graphs_total Cached graphs carried across revisions, by how.")
	fmt.Fprintln(w, "# TYPE dcserved_invalidate_graphs_total counter")
	fmt.Fprintf(w, "dcserved_invalidate_graphs_total{outcome=\"rebound\"} %d\n", m.graphsRebound.Load())
	fmt.Fprintf(w, "dcserved_invalidate_graphs_total{outcome=\"repaired\"} %d\n", m.graphsRepaired.Load())
	fmt.Fprintf(w, "dcserved_invalidate_graphs_total{outcome=\"rebuilt\"} %d\n", m.graphsRebuilt.Load())

	fmt.Fprintln(w, "# HELP dcserved_eval_seconds Evaluation latency (compile + verdict).")
	fmt.Fprintln(w, "# TYPE dcserved_eval_seconds histogram")
	for i, le := range evalBuckets {
		fmt.Fprintf(w, "dcserved_eval_seconds_bucket{le=%q} %d\n", fmt.Sprint(le), m.evalBkt[i].Load())
	}
	fmt.Fprintf(w, "dcserved_eval_seconds_bucket{le=\"+Inf\"} %d\n", m.evalCount.Load())
	fmt.Fprintf(w, "dcserved_eval_seconds_sum %g\n", float64(m.evalSumNs.Load())/1e9)
	fmt.Fprintf(w, "dcserved_eval_seconds_count %d\n", m.evalCount.Load())

	// The process-wide exploration cache, re-exported so one scrape shows
	// how well requests coalesce into graph builds.
	cs := explore.CacheStats()
	fmt.Fprintln(w, "# HELP dcserved_graph_cache_events_total Exploration-cache events (process-wide).")
	fmt.Fprintln(w, "# TYPE dcserved_graph_cache_events_total counter")
	fmt.Fprintf(w, "dcserved_graph_cache_events_total{event=\"build\"} %d\n", cs.Builds)
	fmt.Fprintf(w, "dcserved_graph_cache_events_total{event=\"hit\"} %d\n", cs.Hits)
	fmt.Fprintf(w, "dcserved_graph_cache_events_total{event=\"miss\"} %d\n", cs.Misses)
	fmt.Fprintf(w, "dcserved_graph_cache_events_total{event=\"bypass\"} %d\n", cs.Bypasses)
	fmt.Fprintf(w, "dcserved_graph_cache_events_total{event=\"eviction\"} %d\n", cs.Evictions)
	fmt.Fprintln(w, "# HELP dcserved_graph_cache_resident_states States resident in the exploration cache.")
	fmt.Fprintln(w, "# TYPE dcserved_graph_cache_resident_states gauge")
	fmt.Fprintf(w, "dcserved_graph_cache_resident_states %d\n", cs.States)

	// The spill counters: nonzero spilled bytes mean some
	// evaluation outgrew the -mem-budget and degraded to disk instead of
	// growing the resident set.
	ss := explore.SpillCounters()
	fmt.Fprintln(w, "# HELP dcserved_spill_bytes_total Bytes written to exploration spill files (process-wide).")
	fmt.Fprintln(w, "# TYPE dcserved_spill_bytes_total counter")
	fmt.Fprintf(w, "dcserved_spill_bytes_total %d\n", ss.BytesSpilled)
	fmt.Fprintln(w, "# HELP dcserved_spill_events_total Out-of-core engine events (process-wide).")
	fmt.Fprintln(w, "# TYPE dcserved_spill_events_total counter")
	fmt.Fprintf(w, "dcserved_spill_events_total{event=\"frontier_run\"} %d\n", ss.FrontierRuns)
	fmt.Fprintf(w, "dcserved_spill_events_total{event=\"front_hit\"} %d\n", ss.FrontHits)
	fmt.Fprintf(w, "dcserved_spill_events_total{event=\"front_miss\"} %d\n", ss.FrontMisses)
	fmt.Fprintf(w, "dcserved_spill_events_total{event=\"shard_probe\"} %d\n", ss.ShardProbes)
	fmt.Fprintf(w, "dcserved_spill_events_total{event=\"shard_merge\"} %d\n", ss.ShardMerges)
}
