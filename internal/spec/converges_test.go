package spec

import (
	"testing"

	"detcorr/internal/explore"
	"detcorr/internal/state"
)

// TestCheckConvergesOneBuild pins the cost model: a convergence check is one
// graph compilation, not three. The closure obligations stream over the
// kernel (zero builds) and the liveness obligation goes through the shared
// cache, so a repeated check builds nothing at all. Counter deltas are read
// from the process-global cache statistics, so no t.Parallel here.
func TestCheckConvergesOneBuild(t *testing.T) {
	explore.ResetCache()

	p := counter(t, 5, inc(5))
	before := explore.CacheStats()
	if err := CheckConverges(p, state.True, atLeast(2)); err != nil {
		t.Fatal(err)
	}
	mid := explore.CacheStats()
	if d := mid.Builds - before.Builds; d != 1 {
		t.Errorf("first CheckConverges compiled %d graphs, want exactly 1", d)
	}
	if d := mid.Misses - before.Misses; d != 1 {
		t.Errorf("first CheckConverges missed %d times, want 1", d)
	}
	// The second identical check finds the graph resident and builds nothing;
	// the closure obligations now answer from the cached graph's edges too.
	if err := CheckConverges(p, state.True, atLeast(2)); err != nil {
		t.Fatal(err)
	}
	after := explore.CacheStats()
	if d := after.Builds - mid.Builds; d != 0 {
		t.Errorf("second CheckConverges compiled %d graphs, want 0", d)
	}
	if after.Hits <= mid.Hits {
		t.Error("second CheckConverges must hit the cache")
	}
}
