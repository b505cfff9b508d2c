package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"detcorr/internal/core"
	"detcorr/internal/explore"
	"detcorr/internal/fault"
	"detcorr/internal/serve"
	"detcorr/internal/serve/api"
)

// The traced run measures layers. Every workload's inputs are replayed
// in-process, three ways side by side: through the real pipeline
// (serve.LoadSource and serve.Eval, or an in-process serve.Server), through
// the replay with tracing off, and through the replay with tracing on. The
// first two give trace.replay_ratio, which checks that the replay does the
// pipeline's work; the last two give trace.overhead_ratio; the traced
// replay gives every layer's self time. The daemon's layer is measured on
// an in-process server fed the workload's traffic.

// question is one verdict request of a traced pass.
type question struct {
	id  string
	req api.Request
}

// traceRun accumulates one traced run.
type traceRun struct {
	ctx context.Context
	e   *env
	rep *report
	rec *recorder // tracing on
	off *recorder // tracing off: the untraced replay

	passes         int
	real, untraced time.Duration // replay_ratio's numerator and denominator
	traced         time.Duration // traced replay time, probes excluded
	realLoad       time.Duration
	realEval       time.Duration
	cacheHits      int64 // explore cache, traced replays only
	cacheMisses    int64
	handlerHits    int
	handlerMisses  int
	revPreserved   int // verdicts a revision carried over (serve)
	revInvalidated int
	queueWaits     []float64
	graphsRepaired int
	graphsRebound  int
}

// The per-layer metrics, in BENCHMARK.json order. Times are self times
// summed over one pass of the workload's inputs, in milliseconds.
var layerTimes = []string{
	"gcl.parse", "lint.analyze", "gcl.compile",
	"prove.certify", "prove.attempt",
	"flow.certify", "flow.slice", "flow.plan",
	"explore.build", "explore.scan", "explore.migrate",
	"explore.reach", "explore.scc", "explore.faircycle", "explore.eventually", "explore.closed_subset",
	"spec.closed_on", "core.check", "core.goodregion",
	"fault.compose", "fault.span",
	"serve.handler_hit", "serve.handler_miss", "serve.revise",
}

// traceWorkload runs the traced passes of one workload until the run's
// time is spent (at least one) and reports the per-layer metrics.
func traceWorkload(ctx context.Context, w workload, e *env) (*report, error) {
	t := &traceRun{ctx: ctx, e: e, rep: newReport(), rec: newRecorder(true), off: newRecorder(false)}
	start := time.Now()
	var passes []float64
	for moreRounds(start, passes, e.seconds) {
		passStart := time.Now()
		if err := w.pass(t); err != nil {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		t.passes++
		passes = append(passes, time.Since(passStart).Seconds())
	}
	t.metrics()
	if e.traceOut != "" {
		if err := t.rec.write(e.traceOut, w.name, e.seed); err != nil {
			return nil, err
		}
	}
	return t.rep, nil
}

// replayOnce loads and decides one question with the given recorder.
func (t *traceRun) replayOnce(rec *recorder, q question) (time.Duration, string, string, error) {
	r := &replayer{ctx: t.ctx, rec: rec}
	start := time.Now()
	defer rec.begin(q.id)()
	u, err := r.load(q.req.Program)
	if err != nil {
		return 0, "", "", err
	}
	v, rung, err := r.decide(u, q.req)
	return time.Since(start), v, rung, err
}

// cold measures one question from an empty graph cache three ways: the
// real pipeline, the untraced replay, and the traced replay.
func (t *traceRun) cold(q question) error {
	t.rep.attempt()
	explore.ResetCache()
	start := time.Now()
	f, err := serve.LoadSource(q.req.Program)
	if err != nil {
		return fmt.Errorf("%s: %w", q.id, err)
	}
	loaded := time.Now()
	resp, err := serve.Eval(t.ctx, f, q.req)
	if err != nil {
		return fmt.Errorf("%s: %w", q.id, err)
	}
	t.realLoad += loaded.Sub(start)
	t.realEval += time.Since(loaded)
	t.real += time.Since(start)
	t.rep.checkVerdict(t.e.golden, q.id, resp.Verdict)

	explore.ResetCache()
	d, v, _, err := t.replayOnce(t.off, q)
	if err != nil {
		return fmt.Errorf("%s: untraced replay: %w", q.id, err)
	}
	t.untraced += d
	t.agree(q.id, resp.Verdict, v)

	explore.ResetCache()
	probes := t.rec.counts["probe_ns"]
	d, v, rung, err := t.replayOnce(t.rec, q)
	if err != nil {
		return fmt.Errorf("%s: traced replay: %w", q.id, err)
	}
	st := explore.CacheStats()
	t.cacheHits += st.Hits
	t.cacheMisses += st.Misses
	t.traced += d - time.Duration(t.rec.counts["probe_ns"]-probes)
	t.rec.count("ladder."+rung, 1)
	t.agree(q.id, resp.Verdict, v)
	return nil
}

// agree records a replayed verdict that differs from the pipeline's.
func (t *traceRun) agree(id, want, got string) {
	if want != got {
		t.rep.wrong(fmt.Errorf("%s: replay decided %s, the pipeline %s", id, got, want))
	}
}

// inProcess is a serve.Server driven through its handler, with the
// handler time recorded as serve spans.
type inProcess struct {
	t   *traceRun
	srv *serve.Server
}

func (t *traceRun) newServer() *inProcess {
	return &inProcess{t: t, srv: serve.NewServer(serve.Config{})}
}

func (s *inProcess) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // every request has returned; nothing is in flight
}

// post sends one request through the handler and decodes a 200 body.
func (s *inProcess) post(path string, body []byte, out any) (*httptest.ResponseRecorder, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		return w, fmt.Errorf("%s: HTTP %d: %s", path, w.Code, bytes.TrimSpace(w.Body.Bytes()))
	}
	return w, json.Unmarshal(w.Body.Bytes(), out)
}

// verdict posts one verdict request, records it as a hit or miss span,
// and checks it against the golden catalogue.
func (s *inProcess) verdict(id string, body []byte) (*api.Response, error) {
	t := s.t
	start := t.rec.now()
	var resp api.Response
	w, err := s.post("/v1/verdict", body, &resp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	if w.Header().Get("X-DC-Cache") == "hit" {
		t.rec.leaf("serve.handler_hit", start)
		t.handlerHits++
	} else {
		t.rec.leaf("serve.handler_miss", start)
		t.handlerMisses++
	}
	t.rep.checkVerdict(t.e.golden, id, resp.Verdict)
	return &resp, nil
}

// revise posts one revision and records its accounting.
func (s *inProcess) revise(old, new string) error {
	t := s.t
	start := t.rec.now()
	var rep serve.ReviseReport
	if _, err := s.post("/v1/revise", mustJSON(api.ReviseRequest{Old: old, New: new}), &rep); err != nil {
		return err
	}
	t.rec.leaf("serve.revise", start)
	t.revPreserved += rep.VerdictsPreserved
	t.revInvalidated += rep.VerdictsInvalidated
	return nil
}

// queue runs an open loop of already-answered requests against the
// in-process server at the reference rate for a second and records how
// long each waited for one of the two workers.
func (s *inProcess) queue(reqs []question) {
	n := int(referenceRate)
	res := runStep(s.t.ctx, realClock{}, 2, referenceRate, n, func(ctx context.Context, i int) error {
		q := reqs[i%len(reqs)]
		var resp api.Response
		_, err := s.post("/v1/verdict", mustJSON(q.req), &resp)
		return err
	})
	s.t.queueWaits = append(s.t.queueWaits, res.wait...)
}

// cliPass is one pass of oneshot-mix or large-space: every item cold,
// then through an in-process server twice (misses, then hits), an open
// loop of the hits, and the layer probe.
func (t *traceRun) cliPass(items []item) error {
	nm := newNamer(t.e.rng)
	var qs []question
	for _, it := range items {
		qs = append(qs, question{it.id(), it.render(nm.stable(it.prog))})
	}
	for _, q := range qs {
		if err := t.cold(q); err != nil {
			return err
		}
	}
	explore.ResetCache()
	s := t.newServer()
	defer s.close()
	for pass := 0; pass < 2; pass++ {
		for _, q := range qs {
			if _, err := s.verdict(q.id, mustJSON(q.req)); err != nil {
				return err
			}
		}
	}
	s.queue(qs)
	return t.probe(s, qs)
}

// servedPass is one pass of served-mixed: one round of the mix through an
// in-process server, its never-seen programs cold, an open loop of the
// round, and the layer probe.
func (t *traceRun) servedPass() error {
	stream := newServedStream(t.e.rng)
	round := stream.take(stream.roundLen())
	s := t.newServer()
	defer s.close()
	for _, it := range stream.hits { // the daemon's warm pass
		if _, err := s.verdict(it.id(), mustJSON(it.render(naming{}))); err != nil {
			return err
		}
	}
	var qs, novel []question
	for _, r := range round {
		var req api.Request
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		q := question{r.id, req}
		qs = append(qs, q)
		if r.novel {
			novel = append(novel, q)
		}
		if _, err := s.verdict(r.id, r.body); err != nil {
			return err
		}
	}
	s.queue(qs)
	for _, q := range novel {
		if err := t.cold(q); err != nil {
			return err
		}
	}
	return t.probe(s, novel)
}

// editPass is one round of edit-loop saves, made three times side by
// side: through an in-process server (the real pipeline: revise, then
// three verdicts) and through two replay chains, untraced and traced,
// which revise and decide by hand.
func (t *traceRun) editPass() error {
	explore.ResetCache()
	stream := newEditStream(t.e.rng)
	s := t.newServer()
	defer s.close()
	// Each session's first revision, answered on all three sides outside
	// the timing.
	var off, traced []*chain
	for i, b := range stream.bases {
		src := stream.sessions[i].src
		for _, cs := range []*[]*chain{&off, &traced} {
			u, err := (&replayer{ctx: t.ctx, rec: t.off}).load(src)
			if err != nil {
				return err
			}
			c := newChain(u)
			*cs = append(*cs, c)
			for _, q := range editRequests(b.ring, src) {
				if _, _, err := (&replayer{ctx: t.ctx, rec: t.off}).verdict(c, q.req); err != nil {
					return err
				}
			}
		}
		for _, q := range editRequests(b.ring, src) {
			if _, err := s.verdict(q.id, mustJSON(q.req)); err != nil {
				return err
			}
		}
	}
	var last []question
	for _, save := range stream.round() {
		t.rep.attempt()
		last = editRequests(save.variant, save.new)
		start := time.Now()
		if err := s.revise(save.old, save.new); err != nil {
			return err
		}
		want := map[string]string{}
		for _, q := range last {
			resp, err := s.verdict(q.id, mustJSON(q.req))
			if err != nil {
				return err
			}
			want[q.id] = resp.Verdict
		}
		t.real += time.Since(start)

		for _, side := range []struct {
			rec *recorder
			c   *chain
		}{{t.off, off[save.session]}, {t.rec, traced[save.session]}} {
			r := &replayer{ctx: t.ctx, rec: side.rec}
			probes := t.rec.counts["probe_ns"]
			before := explore.CacheStats()
			start := time.Now()
			end := side.rec.begin(save.variant.key())
			if err := r.revise(side.c, save.new); err != nil {
				end()
				return err
			}
			for _, q := range last {
				v, rung, err := r.verdict(side.c, q.req)
				if err != nil {
					end()
					return err
				}
				t.agree(q.id, want[q.id], v)
				side.rec.count("ladder."+rung, 1)
			}
			end()
			d := time.Since(start)
			if side.rec == t.off {
				t.untraced += d
			} else {
				t.traced += d - time.Duration(t.rec.counts["probe_ns"]-probes)
				after := explore.CacheStats()
				t.cacheHits += after.Hits - before.Hits
				t.cacheMisses += after.Misses - before.Misses
			}
		}
	}
	s.queue(last)
	// The session's last revision, once more from scratch: the cold
	// pipeline the saves above avoided.
	for _, q := range last {
		if err := t.cold(q); err != nil {
			return err
		}
	}
	return t.probe(s, last)
}

// probe exercises, on the pass's shortest program, the layers its own
// requests may not reach — so every per-layer metric is measured in
// every workload: a graph from the program's first predicate with the
// liveness probes on it, the fault composition and span, a comment-only
// revision replayed (plan and migration) and sent to the server.
func (t *traceRun) probe(s *inProcess, qs []question) error {
	q := qs[0]
	for _, c := range qs[1:] {
		if len(c.req.Program) < len(q.req.Program) {
			q = c
		}
	}
	defer t.rec.begin("probe:" + q.id)()
	r := &replayer{ctx: t.ctx, rec: t.rec}
	u, err := r.load(q.req.Program)
	if err != nil {
		return err
	}
	if len(u.f.AST.Preds) == 0 {
		return fmt.Errorf("%s: the probe program declares no predicate", q.id)
	}
	pred, _ := u.f.Pred(u.f.AST.Preds[0].Name)
	g, err := r.build(u.f.Program, pred, explore.Options{})
	if err != nil {
		return err
	}
	r.probeLiveness(g, pred, func(g *explore.Graph) (*explore.Bitset, *explore.Bitset) {
		return g.All(), g.SetOf(pred)
	})
	end := t.rec.begin("core.check")
	_ = core.Detector{Name: u.f.Name, D: u.f.Program, Z: pred, X: pred, U: pred}.CheckCtx(t.ctx) // timed, not judged
	end()
	if !u.f.Faults.Empty() {
		end := t.rec.begin("fault.compose")
		_, _, err := fault.Compose(u.f.Program, u.f.Faults)
		end()
		if err != nil {
			return err
		}
		end = t.rec.begin("fault.span")
		_, err = fault.ComputeSpanCtx(t.ctx, u.f.Program, u.f.Faults, pred)
		end()
		if err != nil {
			return err
		}
	}
	revised := q.req.Program + "\n# probe revision\n"
	if err := r.revise(newChain(u), revised); err != nil {
		return err
	}
	return s.revise(q.req.Program, revised)
}

// metrics turns the accumulated spans and counts into the per-layer
// metrics, per pass.
func (t *traceRun) metrics() {
	per := float64(t.passes)
	self := t.rec.selfTimes()
	for _, name := range layerTimes {
		t.rep.set(name+"_ms", ms(self[name])/per, "ms")
	}
	c := t.rec.counts
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	t.rep.set("prove.attempts", c["prove.attempts"]/per, "count")
	t.rep.set("prove.decided_ratio", ratio(c["prove.proved"], c["prove.attempts"]), "ratio")
	t.rep.set("flow.decided_ratio", ratio(c["flow.decided"], c["flow.slices"]), "ratio")
	t.rep.set("flow.state_ratio", ratio(c["flow.state_ratio_sum"], c["flow.slices"]), "ratio")
	t.rep.set("explore.states", c["explore.states"]/per, "count")
	t.rep.set("explore.edges", c["explore.edges"]/per, "count")
	t.rep.set("explore.states_per_s", ratio(c["explore.states"], c["explore.build_ns"]/1e9), "1/s")
	t.rep.set("explore.cache_hit_ratio", ratio(float64(t.cacheHits), float64(t.cacheHits+t.cacheMisses)), "ratio")
	t.rep.set("explore.graphs_repaired", c["explore.graphs_repaired"]/per, "count")
	t.rep.set("explore.graphs_rebound", c["explore.graphs_rebound"]/per, "count")
	t.rep.set("serve.load_ms", ms(t.realLoad)/per, "ms")
	t.rep.set("serve.eval_ms", ms(t.realEval)/per, "ms")
	t.rep.set("serve.verdict_cache_hit_ratio", ratio(float64(t.handlerHits), float64(t.handlerHits+t.handlerMisses)), "ratio")
	t.rep.set("serve.preserved_ratio", ratio(float64(t.revPreserved), float64(t.revPreserved+t.revInvalidated)), "ratio")
	t.rep.set("serve.queue_wait_ms", mean(t.queueWaits), "ms")
	for _, rung := range []string{"prove", "cached", "slice", "build", "scan", "preserved"} {
		t.rep.set("ladder."+rung, c["ladder."+rung]/per, "count")
	}
	t.rep.set("trace.replay_ratio", ratio(float64(t.untraced), float64(t.real)), "ratio")
	t.rep.set("trace.overhead_ratio", ratio(float64(t.traced-t.untraced), float64(t.untraced)), "ratio")
	t.rep.notef("%d traced passes; %d spans; replay %.1f ms untraced vs %.1f ms through the pipeline; traced %.1f ms without probes",
		t.passes, len(t.rec.spans), ms(t.untraced), ms(t.real), ms(t.traced))
	names := sortedKeys(self)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names[:min(5, len(names))] {
		t.rep.notef("self time %-24s %10.1f ms per pass", n, ms(self[n])/per)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
