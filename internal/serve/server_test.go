package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"detcorr/internal/explore"
	"detcorr/internal/serve/api"
	"detcorr/internal/serve/corpus"
)

// post sends one verdict request and returns the response, fully read.
func post(t *testing.T, url string, req api.Request, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	var body bytes.Buffer
	if err := api.Encode(&body, req); err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/verdict", &body)
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		hr.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestServerEndToEnd(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	for _, item := range corpus.Items() {
		t.Run(item.Name, func(t *testing.T) {
			resp, body := post(t, ts.URL, item.Request, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, body %s", resp.StatusCode, body)
			}
			var v api.Response
			if err := json.Unmarshal(body, &v); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if v.Verdict != item.Verdict {
				t.Errorf("verdict = %s (detail %q), want %s", v.Verdict, v.Detail, item.Verdict)
			}
			if got := resp.Header.Get("X-DC-Exit"); got != strconv.Itoa(v.ExitCode()) {
				t.Errorf("X-DC-Exit = %q, want %d", got, v.ExitCode())
			}
			if got := resp.Header.Get("X-DC-Cache"); got != "miss" {
				t.Errorf("first ask: X-DC-Cache = %q, want miss", got)
			}
			// Ask again: the verdict cache answers, byte-identically.
			resp2, body2 := post(t, ts.URL, item.Request, nil)
			if got := resp2.Header.Get("X-DC-Cache"); got != "hit" {
				t.Errorf("second ask: X-DC-Cache = %q, want hit", got)
			}
			if !bytes.Equal(body, body2) {
				t.Errorf("cached verdict differs from computed one:\nmiss: %s\nhit:  %s", body, body2)
			}
		})
	}
}

func TestServerErrorTaxonomy(t *testing.T) {
	srv := NewServer(Config{MaxBodyBytes: 2048})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// Malformed JSON and unknown fields: 400.
	for _, body := range []string{"{", `{"program": "p", "chekc": "closure"}`} {
		resp, err := http.Post(ts.URL+"/v1/verdict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
	// Malformed question: 400 with the usage exit code.
	resp, _ := post(t, ts.URL, api.Request{Program: corpus.Ring3, Check: api.CheckClosure, Invariant: "Nope"}, nil)
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("X-DC-Exit") != "2" {
		t.Errorf("unknown predicate: status = %d exit %q, want 400 exit 2", resp.StatusCode, resp.Header.Get("X-DC-Exit"))
	}
	// Unprocessable program: 422 with the parse exit code.
	resp, body := post(t, ts.URL, api.Request{Program: "program broken\nvar x", Check: api.CheckDeadlock}, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity || resp.Header.Get("X-DC-Exit") != "3" {
		t.Errorf("parse error: status = %d exit %q body %s, want 422 exit 3", resp.StatusCode, resp.Header.Get("X-DC-Exit"), body)
	}
	var apiErr api.Error
	if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Error == "" {
		t.Errorf("error body not an api.Error: %s", body)
	}
	// Oversized body: 413.
	big := api.Request{Program: strings.Repeat("# padding\n", 1024) + corpus.Countdown, Check: api.CheckDeadlock}
	resp, _ = post(t, ts.URL, big, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status = %d, want 413", resp.StatusCode)
	}
	// Wrong method.
	getResp, err := http.Get(ts.URL + "/v1/verdict")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/verdict: status = %d, want 405", getResp.StatusCode)
	}
}

// TestServerAdmissionAndDedup holds an evaluation open with the test gate
// and probes the three admission outcomes: the slot holder (miss), an
// identical question (join, never refused), and a different question on a
// saturated server (429 with Retry-After).
func TestServerAdmissionAndDedup(t *testing.T) {
	gate := make(chan struct{})
	srv := NewServer(Config{MaxInFlight: 1})
	srv.testGate = func() { <-gate }
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	slow := api.Request{Program: corpus.Ring3, Check: api.CheckDeadlock}
	type result struct {
		status int
		cache  string
		body   []byte
	}
	results := make(chan result, 2)
	ask := func() {
		resp, body := post(t, ts.URL, slow, nil)
		results <- result{resp.StatusCode, resp.Header.Get("X-DC-Cache"), body}
	}
	go ask()
	waitInFlight(t, srv, 1)
	go ask() // identical: joins the flight instead of burning a slot
	waitRefs(t, srv, requestKey(slow), 2)

	// A different question finds the server saturated.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := post(t, ts.URL, api.Request{Program: corpus.Countdown, Check: api.CheckDeadlock, From: "Top"}, nil)
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("saturated server never returned 429 (last status %d)", resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}

	close(gate)
	got := map[string]int{}
	var bodies [][]byte
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("concurrent ask: status = %d", r.status)
		}
		got[r.cache]++
		bodies = append(bodies, r.body)
	}
	if got["miss"] != 1 || got["join"] != 1 {
		t.Errorf("cache states = %v, want one miss and one join", got)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("joined verdict differs from computed one:\n%s\n%s", bodies[0], bodies[1])
	}
}

// waitRefs polls until the flight for key has n waiters.
func waitRefs(t *testing.T, srv *Server, key [32]byte, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		fl := srv.flights[key]
		refs := 0
		if fl != nil {
			refs = fl.refs
		}
		srv.mu.Unlock()
		if refs >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight never reached %d waiters (at %d)", n, refs)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitInFlight polls until n evaluations hold slots.
func waitInFlight(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.sem) < n {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight never reached %d", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerDrain proves the shutdown contract: draining refuses new work
// with 503, reports unhealthy, and still completes the verdict that was in
// flight when the signal arrived.
func TestServerDrain(t *testing.T) {
	gate := make(chan struct{})
	srv := NewServer(Config{})
	srv.testGate = func() { <-gate }
	ts := httptest.NewServer(srv)
	defer ts.Close()

	inFlight := make(chan result1, 1)
	go func() {
		resp, body := post(t, ts.URL, api.Request{Program: corpus.Ring3, Check: api.CheckDeadlock}, nil)
		inFlight <- result1{resp.StatusCode, body}
	}()
	waitInFlight(t, srv, 1)

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()

	// Draining is observable immediately: healthz flips and new verdicts
	// are refused.
	deadline := time.Now().Add(5 * time.Second)
	for !srv.isDraining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status = %d, want 503", hz.StatusCode)
	}
	resp, _ := post(t, ts.URL, api.Request{Program: corpus.Countdown, Check: api.CheckDeadlock}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("verdict while draining: status = %d, want 503", resp.StatusCode)
	}

	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while an evaluation was still gated")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown = %v, want nil", err)
	}
	r := <-inFlight
	if r.status != http.StatusOK {
		t.Errorf("in-flight verdict during drain: status = %d body %s, want 200", r.status, r.body)
	}
}

type result1 struct {
	status int
	body   []byte
}

func TestServerHealthzAndMetrics(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK || string(b) != "ok\n" {
		t.Errorf("healthz = %d %q, want 200 ok", hz.StatusCode, b)
	}

	// Generate a miss and a hit, then scrape.
	req := api.Request{Program: corpus.Countdown, Check: api.CheckDeadlock, From: "Top"}
	post(t, ts.URL, req, nil)
	post(t, ts.URL, req, nil)
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	metricsText := string(mb)
	for _, want := range []string{
		`dcserved_verdicts_total{cache="hit"} 1`,
		`dcserved_verdicts_total{cache="miss"} 1`,
		`dcserved_requests_total{code="200"} 2`,
		"dcserved_programs_resident 1",
		"dcserved_eval_seconds_count 1",
		"dcserved_graph_cache_events_total",
		"dcserved_draining 0",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("metrics missing %q:\n%s", want, metricsText)
		}
	}
}

// TestServerSpillBudget configures the server with the minimum exploration
// memory budget, so evaluations degrade to spilled exploration: the
// verdicts must stay exactly the ground truth (spilling changes where state
// lives, never what is decided) and the spill counters must show the
// engine actually ran.
func TestServerSpillBudget(t *testing.T) {
	srv := NewServer(Config{SpillBudget: 1 << 16, SpillDir: t.TempDir()})
	defer explore.SetDefaultSpill(0, "") // the default is process-wide
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	before := explore.SpillCounters()
	// The deadlock hunt streams over the kernel on every evaluation (no
	// graph cache in front of it), so it is guaranteed to exercise the
	// budgeted path regardless of what earlier tests left cached.
	for _, item := range corpus.Items() {
		if item.Request.Check != api.CheckDeadlock {
			continue
		}
		resp, body := post(t, ts.URL, item.Request, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d, body %s", item.Name, resp.StatusCode, body)
		}
		var v api.Response
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("%s: decode: %v", item.Name, err)
		}
		if v.Verdict != item.Verdict {
			t.Errorf("%s under spill budget: verdict = %s (detail %q), want %s",
				item.Name, v.Verdict, v.Detail, item.Verdict)
		}
	}
	after := explore.SpillCounters()
	if after.FrontHits == before.FrontHits {
		t.Errorf("spill front saw no claims: counters %+v -> %+v", before, after)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(mb), "dcserved_spill_events_total") {
		t.Errorf("metrics missing spill counters:\n%s", mb)
	}
}

// TestServerSSE drives the streaming transport: progress events arrive as
// the request moves through admission, then a verdict event whose payload
// matches the plain transport field-for-field, then the exit event.
func TestServerSSE(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	req := api.Request{Program: corpus.Countdown, Check: api.CheckDeadlock, From: "Top"}
	var body bytes.Buffer
	if err := api.Encode(&body, req); err != nil {
		t.Fatal(err)
	}
	hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/verdict", &body)
	hr.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := map[string]string{}
	var order []string
	sc := bufio.NewScanner(resp.Body)
	var name string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			events[name] = strings.TrimPrefix(line, "data: ")
			order = append(order, name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"progress", "verdict", "exit"}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("event order = %v, want %v (events %v)", order, want, events)
	}
	if events["progress"] != `{"stage":"eval"}` {
		t.Errorf("progress = %s", events["progress"])
	}
	var v api.Response
	if err := json.Unmarshal([]byte(events["verdict"]), &v); err != nil {
		t.Fatalf("verdict event: %v", err)
	}
	if v.Verdict != api.VerdictDeadlock || len(v.Witness) != 4 {
		t.Errorf("verdict event = %+v", v)
	}
	if events["exit"] != `{"exit":1,"cache":"miss"}` {
		t.Errorf("exit event = %s", events["exit"])
	}
}

// TestServerSSEError checks the streaming error path carries the same
// taxonomy as the plain transport.
func TestServerSSEError(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	var body bytes.Buffer
	if err := api.Encode(&body, api.Request{Program: "program broken\nvar x", Check: api.CheckDeadlock}); err != nil {
		t.Fatal(err)
	}
	hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/verdict", &body)
	hr.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	all, _ := io.ReadAll(resp.Body)
	text := string(all)
	if !strings.Contains(text, "event: error") || !strings.Contains(text, "event: status\ndata: 422") {
		t.Errorf("SSE error stream = %q, want error event with status 422", text)
	}
}
