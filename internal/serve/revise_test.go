package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"detcorr/internal/explore"
	"detcorr/internal/serve/api"
	"detcorr/internal/serve/corpus"
	"detcorr/internal/state"
)

// postRevise submits one revision and returns the decoded report.
func postRevise(t *testing.T, url, oldSrc, newSrc string) (*http.Response, *ReviseReport) {
	t.Helper()
	var body bytes.Buffer
	if err := api.Encode(&body, api.ReviseRequest{Old: oldSrc, New: newSrc}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/revise", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("revise status = %d, body %s", resp.StatusCode, b)
	}
	var rep ReviseReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("decode report: %v (body %s)", err, b)
	}
	return resp, &rep
}

// TestReviseEndToEnd drives the whole incremental pipeline over HTTP: warm
// verdicts for one revision, submit edits, and confirm that preserved
// verdicts answer as cache hits with byte-identical bodies while
// invalidated ones are re-evaluated.
func TestReviseEndToEnd(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	closure := api.Request{Program: corpus.Ring3, Check: api.CheckClosure, Invariant: "Legit"}
	// Convergence explores the program's own graph (closure goes through
	// the slicer, fault-composed hunts through fault composition), so it
	// is the request that exercises graph migration.
	converge := api.Request{Program: corpus.Ring3, Check: api.CheckConvergence, Invariant: "true", Goal: "Legit"}
	deadlockFaults := api.Request{Program: corpus.Ring3, Check: api.CheckDeadlock, Faults: true}
	_, closureBody := post(t, ts.URL, closure, nil)
	_, _ = post(t, ts.URL, converge, nil)
	_, _ = post(t, ts.URL, deadlockFaults, nil)

	// Revision 1: reformat only (an extra trailing comment line). The plan
	// is an identity on every section, so all three verdicts survive.
	rev1 := corpus.Ring3 + "\n# reviewed\n"
	_, rep := postRevise(t, ts.URL, corpus.Ring3, rev1)
	if rep.VerdictsPreserved != 3 || rep.VerdictsInvalidated != 0 {
		t.Fatalf("identity revision: preserved=%d invalidated=%d, want 3/0",
			rep.VerdictsPreserved, rep.VerdictsInvalidated)
	}
	if rep.GraphsRebound == 0 || rep.GraphsRepaired != 0 || rep.GraphsRebuilt != 0 {
		t.Fatalf("identity revision: graph accounting %+v, want rebound only", rep)
	}
	if !rep.Impact.Unchanged() {
		t.Fatalf("identity revision affected %v", rep.Impact.AffectedPreds)
	}
	closure1 := closure
	closure1.Program = rev1
	hresp, body1 := post(t, ts.URL, closure1, nil)
	if got := hresp.Header.Get("X-DC-Cache"); got != "hit" {
		t.Errorf("preserved closure verdict: X-DC-Cache = %q, want hit", got)
	}
	if !bytes.Equal(closureBody, body1) {
		t.Errorf("preserved verdict differs:\nold: %s\nnew: %s", closureBody, body1)
	}

	// Revision 2: edit a fault guard. The program plan stays identity, so
	// the closure and convergence verdicts survive, but the fault-composed
	// deadlock hunt must be re-checked.
	rev2 := strings.Replace(rev1, "fault corrupt0 :: true", "fault corrupt0 :: x0 != x1", 1)
	if rev2 == rev1 {
		t.Fatal("fault edit did not apply")
	}
	_, rep = postRevise(t, ts.URL, rev1, rev2)
	if rep.VerdictsPreserved != 2 || rep.VerdictsInvalidated != 1 {
		t.Fatalf("fault revision: preserved=%d invalidated=%d, want 2/1",
			rep.VerdictsPreserved, rep.VerdictsInvalidated)
	}
	if len(rep.Impact.ChangedFaults) != 1 {
		t.Fatalf("fault revision: changed faults = %v", rep.Impact.ChangedFaults)
	}
	closure2 := closure
	closure2.Program = rev2
	hresp, _ = post(t, ts.URL, closure2, nil)
	if got := hresp.Header.Get("X-DC-Cache"); got != "hit" {
		t.Errorf("closure after fault edit: X-DC-Cache = %q, want hit", got)
	}
	deadlock2 := deadlockFaults
	deadlock2.Program = rev2
	hresp, _ = post(t, ts.URL, deadlock2, nil)
	if got := hresp.Header.Get("X-DC-Cache"); got != "miss" {
		t.Errorf("fault-composed deadlock after fault edit: X-DC-Cache = %q, want miss (re-check)", got)
	}

	// Revision 3: break an action so Legit's closure verdict may change;
	// the closure verdict must not be carried over.
	rev3 := strings.Replace(rev2, "x0 := (x0 + 1) % 3", "x0 := (x0 + 2) % 3", 1)
	if rev3 == rev2 {
		t.Fatal("action edit did not apply")
	}
	_, rep = postRevise(t, ts.URL, rev2, rev3)
	if rep.VerdictsPreserved != 0 {
		t.Fatalf("action revision preserved %d verdicts, want 0", rep.VerdictsPreserved)
	}
	closure3 := closure
	closure3.Program = rev3
	hresp, _ = post(t, ts.URL, closure3, nil)
	if got := hresp.Header.Get("X-DC-Cache"); got != "miss" {
		t.Errorf("closure after action edit: X-DC-Cache = %q, want miss", got)
	}
}

// TestMetricsInvalidateCounters is the satellite scrape test: the revision
// counters appear on /metrics with the outcomes the revision produced.
func TestMetricsInvalidateCounters(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	req := api.Request{Program: corpus.Countdown, Check: api.CheckClosure, Invariant: "Zero"}
	_, _ = post(t, ts.URL, req, nil)
	_, rep := postRevise(t, ts.URL, corpus.Countdown, corpus.Countdown+"\n# rev\n")
	if rep.VerdictsPreserved != 1 {
		t.Fatalf("preserved = %d, want 1", rep.VerdictsPreserved)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	for _, want := range []string{
		`dcserved_invalidate_verdicts_total{outcome="preserved"} 1`,
		`dcserved_invalidate_verdicts_total{outcome="invalidated"} 0`,
		fmt.Sprintf(`dcserved_invalidate_graphs_total{outcome="rebound"} %d`, rep.GraphsRebound),
		`dcserved_invalidate_graphs_total{outcome="repaired"} 0`,
		`dcserved_invalidate_graphs_total{outcome="rebuilt"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// widenSrc counts x around 0..3; every state of 4..7 is a deadlock, so
// widening S to take in x == 5 makes a deadlock reachable from S that no
// state of the old S reaches.
const widenSrc = `program widen

var x : 0..7

pred S :: x == 0

action up :: x < 3 -> x := x + 1
action back :: x == 3 -> x := 0
`

// TestReviseDropsGraphsOfEditedPredicates: a predicate-only edit leaves
// every action as it was, so the revision plan is an identity, yet a graph
// explored from the edited predicate holds the old predicate's reach and
// must not survive the revision. The graph from true is rebound. Deadlock
// and convergence from the widened S, asked right after the revision,
// must answer byte for byte as they do with nothing resident.
func TestReviseDropsGraphsOfEditedPredicates(t *testing.T) {
	old, err := LoadSource(widenSrc)
	if err != nil {
		t.Fatal(err)
	}
	newSrc := strings.Replace(widenSrc, "pred S :: x == 0", "pred S :: x == 0 | x == 5", 1)
	nu, err := LoadSource(newSrc)
	if err != nil {
		t.Fatal(err)
	}
	defer explore.EvictProgram(old.Program)
	defer explore.EvictProgram(nu.Program)
	s, _ := old.Pred("S")
	for _, init := range []state.Predicate{s, state.True} {
		if _, err := explore.Shared(old.Program, init, explore.Options{}); err != nil {
			t.Fatal(err)
		}
	}

	srv := NewServer(Config{})
	defer srv.Shutdown(context.Background())
	rep := srv.Advance(old, nu)
	if rep.GraphsRebound != 1 || rep.GraphsRepaired != 0 || rep.GraphsRebuilt != 1 {
		t.Errorf("graph accounting %+v, want 1 rebound (from true) and 1 rebuilt (from S)", rep)
	}

	ctx := context.Background()
	reqs := []api.Request{
		{Program: newSrc, Check: api.CheckDeadlock, From: "S"},
		{Program: newSrc, Check: api.CheckConvergence, Invariant: "S", Goal: "S"},
	}
	var after [][]byte
	for _, req := range reqs {
		resp, err := Eval(ctx, nu, req)
		after = append(after, encodeResult(t, resp, err))
	}
	explore.EvictProgram(nu.Program)
	for i, req := range reqs {
		resp, err := Eval(ctx, nu, req)
		want := encodeResult(t, resp, err)
		if !bytes.Equal(after[i], want) {
			t.Errorf("%s after the edit:\n got %s\nwant %s", req.Check, after[i], want)
		}
		if req.Check == api.CheckDeadlock && (resp == nil || resp.Verdict != api.VerdictDeadlock) {
			t.Errorf("deadlock from the widened S: %s, want %s", want, api.VerdictDeadlock)
		}
	}
}

// encodeResult renders a verdict or its error as the bytes a client sees.
func encodeResult(t *testing.T, resp *api.Response, err error) []byte {
	t.Helper()
	if err != nil {
		return []byte("error: " + err.Error())
	}
	var b bytes.Buffer
	if err := api.Encode(&b, resp); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestReviseRejectsBadSources maps load failures onto the 422 convention.
func TestReviseRejectsBadSources(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	var body bytes.Buffer
	if err := api.Encode(&body, api.ReviseRequest{Old: corpus.Ring3, New: "program broken\nvar"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/revise", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("broken new revision: status = %d, want 422", resp.StatusCode)
	}

	body.Reset()
	if err := api.Encode(&body, api.ReviseRequest{Old: "", New: corpus.Ring3}); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/revise", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty old revision: status = %d, want 400", resp.StatusCode)
	}
}

// TestReviseHammer is the satellite concurrency test: a swarm hammers
// verdicts for two revisions of the ring while revisions are submitted
// mid-flight, and every response must byte-match the ground truth for the
// exact source it named — a stale verdict carried across the edit is a
// wrong answer, not a latency blip. Run under -race via the suite.
func TestReviseHammer(t *testing.T) {
	rev0 := corpus.Ring3
	// A real behavioral edit: move0 steps by 2, changing convergence.
	rev1 := strings.Replace(rev0, "x0 := (x0 + 1) % 3", "x0 := (x0 + 2) % 3", 1)
	if rev1 == rev0 {
		t.Fatal("edit did not apply")
	}
	checks := []api.Request{
		{Check: api.CheckClosure, Invariant: "Legit"},
		{Check: api.CheckConvergence, Invariant: "true", Goal: "Legit"},
		{Check: api.CheckDeadlock},
		{Check: api.CheckCorrects, Z: "Legit", X: "Legit", From: "true"},
	}
	// Ground truth: evaluate every (revision, check) pair through the same
	// Eval + Encode pipeline the server uses.
	truth := map[string][]byte{}
	for _, src := range []string{rev0, rev1} {
		f, err := LoadSource(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range checks {
			req.Program = src
			resp, err := Eval(context.Background(), f, req)
			if err != nil {
				t.Fatalf("ground truth %s: %v", req.Check, err)
			}
			var buf bytes.Buffer
			if err := api.Encode(&buf, resp); err != nil {
				t.Fatal(err)
			}
			truth[src+"\x00"+req.Check] = buf.Bytes()
		}
	}

	srv := NewServer(Config{MaxInFlight: 16})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	const workers = 8
	const iters = 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	revised := make(chan struct{})
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if w == 0 && i == iters/2 {
					// Mid-swarm, submit the edit (twice is idempotent
					// enough: re-revising preserves nothing new).
					var body bytes.Buffer
					if err := api.Encode(&body, api.ReviseRequest{Old: rev0, New: rev1}); err != nil {
						errs <- err
						return
					}
					resp, err := http.Post(ts.URL+"/v1/revise", "application/json", &body)
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					close(revised)
				}
				src := rev0
				// After the revision lands, workers shift toward the new
				// revision but keep asking about the old one too.
				select {
				case <-revised:
					if (w+i)%3 != 0 {
						src = rev1
					}
				default:
				}
				req := checks[(w*iters+i)%len(checks)]
				req.Program = src
				var body bytes.Buffer
				if err := api.Encode(&body, req); err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(ts.URL+"/v1/verdict", "application/json", &body)
				if err != nil {
					errs <- err
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d iter %d: status %d body %s", w, i, resp.StatusCode, b)
					return
				}
				if want := truth[src+"\x00"+req.Check]; !bytes.Equal(b, want) {
					errs <- fmt.Errorf("worker %d iter %d: stale or wrong verdict for %s\ngot:  %s\nwant: %s",
						w, i, req.Check, b, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
