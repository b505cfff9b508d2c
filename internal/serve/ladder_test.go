package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"detcorr/internal/explore/difftest"
	"detcorr/internal/serve/api"
	"detcorr/internal/verify"
)

// scrape returns the server's /metrics text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	mr, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	b, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDecisionRungMetrics checks that /metrics counts verdicts by the
// ladder rung that decided them: ring-4 corrects (256 states) is explored
// before the prover is tried, while closure of the watched ring of 6 is
// the prover's at any size. Ring-5 convergence from true builds the graph
// from true, so the deadlock question from true that follows it is
// answered from that resident graph. A verdict-cache hit decides nothing,
// so the repeated request leaves the rung counters alone.
func TestDecisionRungMetrics(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	ring4 := api.Request{Program: difftest.RingSource(4, 4), Check: api.CheckCorrects, Z: "Legit", X: "Legit"}
	watched6 := api.Request{Program: difftest.RingWatchedSource(6, 6), Check: api.CheckClosure, Invariant: "Legit"}
	converge5 := api.Request{Program: difftest.RingSource(5, 5), Check: api.CheckConvergence, Invariant: "true", Goal: "Legit"}
	deadlock5 := api.Request{Program: difftest.RingSource(5, 5), Check: api.CheckDeadlock}
	for _, req := range []api.Request{ring4, watched6, ring4, converge5, deadlock5} {
		want := `"holds"`
		if req.Check == api.CheckDeadlock {
			want = `"` + api.VerdictDeadlockFree + `"`
		}
		resp, body := post(t, ts.URL, req, nil)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("%s: status %d, body %s", req.Check, resp.StatusCode, body)
		}
	}
	text := scrape(t, ts.URL)
	for _, want := range []string{
		`dcserved_decisions_total{rung="build"} 2`,
		`dcserved_decisions_total{rung="prove"} 1`,
		`dcserved_decisions_total{rung="cached"} 1`,
		`dcserved_decisions_total{rung="slice"} 0`,
		`dcserved_decisions_total{rung="scan"} 0`,
		`dcserved_verdicts_total{cache="hit"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestProveCancelFreesSlot: the prover polls its request's context inside
// every refutation, so when the only client of a long proof disconnects
// the flight ends and its admission slot frees within a second. Proving
// ring 6 converges from true runs for minutes when left alone.
func TestProveCancelFreesSlot(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	req := api.Request{Program: difftest.RingSource(6, 6), Check: api.CheckProve, Goal: "Legit"}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		var body strings.Builder
		if err := api.Encode(&body, req); err != nil {
			t.Error(err)
			return
		}
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/verdict", strings.NewReader(body.String()))
		if err != nil {
			t.Error(err)
			return
		}
		if resp, err := http.DefaultClient.Do(hr); err == nil {
			resp.Body.Close()
			t.Error("the proof finished before the client left; nothing was cancelled")
		}
	}()
	waitInFlight(t, srv, 1)
	time.Sleep(100 * time.Millisecond) // well inside the rank synthesis
	cancel()
	<-done
	left := time.Now()
	for !strings.Contains(scrape(t, ts.URL), "dcserved_in_flight 0\n") {
		if time.Since(left) > time.Second {
			t.Fatalf("dcserved_in_flight still nonzero %v after the client left", time.Since(left))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRetainedHeapBounded: every program the registry evicts takes its
// prover system, its slices and its graphs with it. 2,000 distinct
// programs ask a closure question — which derives the prover's system —
// through a server that keeps 8; the heap after program 2,000 must be
// within 8 MiB of the heap after program 200. Retaining every value would
// grow it by about 40 MiB.
func TestRetainedHeapBounded(t *testing.T) {
	srv := NewServer(Config{MaxPrograms: 8})
	defer srv.Shutdown(context.Background())
	base := difftest.RingSource(5, 5)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var at200 uint64
	for i := 1; i <= 2000; i++ {
		src := strings.Replace(base, "program ring5", fmt.Sprintf("program ring5_%d", i), 1)
		resp, _, err := srv.verdict(context.Background(), api.Request{Program: src, Check: api.CheckClosure, Invariant: "Legit"}, "", nil)
		if err != nil || resp.Verdict != api.VerdictHolds {
			t.Fatalf("program %d: %+v, %v", i, resp, err)
		}
		if i == 200 {
			at200 = heap()
		}
	}
	at2000 := heap()
	if srv.programs.resident() != 8 {
		t.Errorf("resident programs = %d, want 8", srv.programs.resident())
	}
	grew := int64(at2000) - int64(at200)
	if grew > 8<<20 {
		t.Errorf("heap grew %d KiB between program 200 and program 2,000; want under 8 MiB", grew>>10)
	}
	t.Logf("heap growth from program 200 to 2,000: %d KiB", grew>>10)
}

// TestRegistryEvictsSliceGraphs: a registry entry owns its slices, so
// evicting the entry frees the slice graphs the slice rung built.
func TestRegistryEvictsSliceGraphs(t *testing.T) {
	r := newRegistry(1)
	src := difftest.RingWatchedSource(3, 3)
	v, err := r.load(src)
	if err != nil {
		t.Fatal(err)
	}
	req := api.Request{Program: src, Check: api.CheckConvergence, Invariant: "true", Goal: "Legit"}
	resp, rung, err := verify.Decide(context.Background(), v, req)
	if err != nil || resp.Verdict != api.VerdictHolds || rung != verify.RungSlice {
		t.Fatalf("convergence: %+v, rung %s, err %v", resp, rung, err)
	}
	if v.Resident() == 0 {
		t.Fatal("the slice rung left nothing resident")
	}
	if _, err := r.load(difftest.RingSource(3, 3)); err != nil {
		t.Fatal(err)
	}
	if n := v.Resident(); n != 0 {
		t.Errorf("the evicted entry still holds %d resident states", n)
	}
}

// TestTenantForgetsEvictedPrograms: a tenant's LRU must not keep the
// values the registry has evicted, or a tenant budget would pin every
// program the tenant ever used.
func TestTenantForgetsEvictedPrograms(t *testing.T) {
	srv := NewServer(Config{MaxPrograms: 2, TenantBudget: 1 << 30})
	defer srv.Shutdown(context.Background())
	base := difftest.RingSource(3, 3)
	for i := 1; i <= 10; i++ {
		src := strings.Replace(base, "program ring3", fmt.Sprintf("program ring3_%d", i), 1)
		req := api.Request{Program: src, Check: api.CheckCorrects, Z: "Legit", X: "Legit"}
		if _, _, err := srv.verdict(context.Background(), req, "t", nil); err != nil {
			t.Fatal(err)
		}
	}
	srv.mu.Lock()
	held := len(srv.tenants["t"].by)
	srv.mu.Unlock()
	if held > 2 {
		t.Errorf("the tenant still holds %d programs; the registry keeps 2", held)
	}
}
