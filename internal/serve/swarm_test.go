package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"detcorr/internal/serve/api"
	"detcorr/internal/serve/corpus"
	"detcorr/internal/verify"
)

// The swarm is the service's proof of correctness under load: a fleet of
// concurrent clients replays the deterministic corpus mix against a live
// server and asserts the three load-bearing properties one client cannot
// observe — every verdict is right under contention, identical questions
// coalesce into exactly one evaluation each, and saturation refuses rather
// than queues. Run with -race; the scheduler is the adversary.

const (
	swarmClients = 64
	swarmRounds  = 3
)

// swarmAsk posts one request, retrying on 429 as the protocol instructs.
// It returns the status, body, and how many times it was refused.
func swarmAsk(client *http.Client, url string, req api.Request, tenant string) (int, []byte, int, error) {
	var body bytes.Buffer
	if err := api.Encode(&body, req); err != nil {
		return 0, nil, 0, err
	}
	raw := body.Bytes()
	refused := 0
	for {
		hr, err := http.NewRequest(http.MethodPost, url+"/v1/verdict", bytes.NewReader(raw))
		if err != nil {
			return 0, nil, refused, err
		}
		if tenant != "" {
			hr.Header.Set("X-DC-Tenant", tenant)
		}
		resp, err := client.Do(hr)
		if err != nil {
			return 0, nil, refused, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil, refused, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			refused++
			retry, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			if retry < 1 {
				retry = 1
			}
			// Scaled down from seconds: the test server saturates and
			// drains in milliseconds, not seconds.
			time.Sleep(time.Duration(retry) * 5 * time.Millisecond)
			continue
		}
		return resp.StatusCode, b, refused, nil
	}
}

// TestSwarm is the headline dedup-under-load suite: swarmClients concurrent
// clients, each replaying the full corpus swarmRounds times from a rotated
// starting offset, against a server with far fewer evaluation slots than
// clients. Every response must carry the ground-truth verdict, all bodies
// for one question must be byte-identical, and — the singleflight contract —
// the server must have evaluated each distinct question exactly once.
func TestSwarm(t *testing.T) {
	var evals atomic.Int64
	srv := NewServer(Config{MaxInFlight: 4})
	srv.testGate = func() { evals.Add(1) }
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	items := corpus.Items()
	bodies := make([][]byte, len(items)) // first body seen per item
	var bodiesMu sync.Mutex
	var refusedTotal atomic.Int64

	var wg sync.WaitGroup
	errs := make(chan error, swarmClients)
	for c := 0; c < swarmClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			for round := 0; round < swarmRounds; round++ {
				for i := range items {
					item := items[(c+i)%len(items)]
					idx := (c + i) % len(items)
					status, body, refused, err := swarmAsk(client, ts.URL, item.Request, "")
					refusedTotal.Add(int64(refused))
					if err != nil {
						errs <- err
						return
					}
					if status != http.StatusOK {
						t.Errorf("client %d %s: status %d body %s", c, item.Name, status, body)
						return
					}
					var v api.Response
					if err := json.Unmarshal(body, &v); err != nil {
						errs <- err
						return
					}
					if v.Verdict != item.Verdict {
						t.Errorf("client %d %s: verdict %s, want %s", c, item.Name, v.Verdict, item.Verdict)
					}
					bodiesMu.Lock()
					if bodies[idx] == nil {
						bodies[idx] = body
					} else if !bytes.Equal(bodies[idx], body) {
						t.Errorf("client %d %s: body diverged under load:\n%s\nvs\n%s", c, item.Name, body, bodies[idx])
					}
					bodiesMu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := evals.Load(); got != int64(len(items)) {
		t.Errorf("evaluations = %d for %d clients × %d rounds × %d items; singleflight + verdict cache must make it exactly %d",
			got, swarmClients, swarmRounds, len(items), len(items))
	}
	t.Logf("swarm: %d requests, %d evaluations, %d refusals (429)",
		swarmClients*swarmRounds*len(items), evals.Load(), refusedTotal.Load())
}

// TestSwarmTenantQuota hammers the per-tenant budget path: many tenants,
// each cycling through all three programs, with a budget far below the
// combined graph footprint. Under -race this exercises chargeTenant against
// concurrent flights; afterwards every tenant must be within budget (or
// down to the single just-used program, which is never evicted).
func TestSwarmTenantQuota(t *testing.T) {
	const budget = 64 // states; ring3+memaccess+countdown graphs exceed this
	srv := NewServer(Config{MaxInFlight: 8, TenantBudget: budget, VerdictCacheSize: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	items := corpus.Items()
	tenants := []string{"alpha", "beta", "gamma", "delta", "", "zeta", "eta", "theta"}
	var wg sync.WaitGroup
	for ti, tenant := range tenants {
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(ti, c int, tenant string) {
				defer wg.Done()
				client := &http.Client{}
				for i := range items {
					item := items[(ti+c+i)%len(items)]
					status, body, _, err := swarmAsk(client, ts.URL, item.Request, tenant)
					if err != nil {
						t.Error(err)
						return
					}
					if status != http.StatusOK {
						t.Errorf("tenant %q %s: status %d body %s", tenant, item.Name, status, body)
					}
				}
			}(ti, c, tenant)
		}
	}
	wg.Wait()

	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.tenants) != len(tenants) {
		t.Errorf("tenant states = %d, want %d", len(srv.tenants), len(tenants))
	}
	evictions := srv.met.tenantEvictions.Load()
	if evictions == 0 {
		t.Error("budget below the working set but no tenant evictions happened")
	}
	for name, ts := range srv.tenants {
		usage := 0
		for el := ts.lru.Front(); el != nil; el = el.Next() {
			usage += el.Value.(*verify.Program).Resident()
		}
		if usage > budget && ts.lru.Len() > 1 {
			t.Errorf("tenant %q: %d resident states across %d programs exceeds budget %d", name, usage, ts.lru.Len(), budget)
		}
	}
	t.Logf("tenant quota: %d evictions across %d tenants", evictions, len(tenants))
}

// BenchmarkServedSwarm is the throughput/latency record for make bench-diff:
// a steady-state swarm (warm caches, realistic mix) measuring requests per
// second and tail latency through the full HTTP stack.
func BenchmarkServedSwarm(b *testing.B) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	items := corpus.Items()
	// Warm every flight once so the benchmark measures the serving path,
	// not the first exploration.
	warm := &http.Client{}
	for _, item := range items {
		if status, body, _, err := swarmAsk(warm, ts.URL, item.Request, ""); err != nil || status != http.StatusOK {
			b.Fatalf("warmup %s: status %d err %v body %s", item.Name, status, err, body)
		}
	}

	var mu sync.Mutex
	var lat []time.Duration
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	perClient := (b.N + swarmClients - 1) / swarmClients
	for c := 0; c < swarmClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			local := make([]time.Duration, 0, perClient)
			for i := 0; i < perClient; i++ {
				item := items[(c+i)%len(items)]
				t0 := time.Now()
				status, _, _, err := swarmAsk(client, ts.URL, item.Request, "")
				if err != nil || status != http.StatusOK {
					b.Errorf("client %d: status %d err %v", c, status, err)
					return
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			lat = append(lat, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(len(lat))/elapsed.Seconds(), "req/s")
	b.ReportMetric(float64(lat[len(lat)/2].Microseconds()), "p50-µs")
	b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds()), "p99-µs")
}
