package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"detcorr/internal/serve/api"
)

// clock is the generator's time source; tests substitute a fake one.
type clock interface {
	Now() time.Time
	// SleepUntil returns once t has passed, or with ctx's error.
	SleepUntil(ctx context.Context, t time.Time) error
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stepResult is one rate step of the open loop.
type stepResult struct {
	// lat is each request's latency in schedule order: ms from its due
	// time to its response, +Inf when it failed, NaN when the step was
	// cancelled before it was sent.
	lat      []float64
	wait     []float64     // ms each request waited past its due time for a worker
	lateness time.Duration // how late the generator started the step's last request
}

// ok returns the latencies of the requests that got a response.
func (s stepResult) ok() []float64 {
	var out []float64
	for _, l := range s.lat {
		if !math.IsNaN(l) && !math.IsInf(l, 1) {
			out = append(out, l)
		}
	}
	return out
}

// runStep sends n requests on a fixed schedule — request i is due at
// start + i/rate — from conns workers sharing one queue: a free worker
// takes the next request, waits for its due time, or sends at once when
// already late. Latency runs from the due time, not the send time, so a
// stall is charged to every request it delays.
func runStep(ctx context.Context, clk clock, conns int, rate float64, n int, do func(ctx context.Context, i int) error) stepResult {
	start := clk.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * float64(time.Second))) }
	res := stepResult{lat: make([]float64, n), wait: make([]float64, n)}
	for i := range res.lat {
		res.lat[i] = math.NaN()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				d := due(i)
				if clk.SleepUntil(ctx, d) != nil {
					return
				}
				began := clk.Now()
				res.wait[i] = ms(began.Sub(d))
				if i == n-1 {
					res.lateness = began.Sub(d)
				}
				err := do(ctx, i)
				res.lat[i] = ms(clk.Now().Sub(d))
				if err != nil {
					res.lat[i] = math.Inf(1)
				}
			}
		}()
	}
	wg.Wait()
	return res
}

// The served-mixed schedule, as shares of the run's length: the open
// loop at the reference rate, then the closed-loop windows. At 250 req/s
// the hits queue behind the 20-70 ms novel requests on some runs and not
// on others, and p90 jumped between 2 and 7 ms; at 100 req/s it repeats.
const (
	referenceRate   = 100.0 // req/s
	referenceShare  = 0.5
	capacityShare   = 0.3
	capacityWindows = 5
)

// servedStream generates the served-mixed traffic in rounds: every fifth
// request is a never-seen program that must compile and evaluate, and the
// other four repeat the corpus — verdict-cache hits once the daemon is
// warm. The seed orders the hits and the novel programs within their slots
// and names the novel programs; the slots themselves are fixed, so the
// queueing behind the costlier novel requests has the same shape for every
// seed.
type servedStream struct {
	rng     *rand.Rand
	nm      *namer
	hits    []item
	novel   []item
	pending []servedReq
}

type servedReq struct {
	id    string
	body  []byte
	novel bool // a program never sent before
}

// newServedStream sends every corpus item and every novel ring question
// once a round as a never-seen program.
func newServedStream(rng *rand.Rand) *servedStream {
	return &servedStream{
		rng:   rng,
		nm:    newNamer(rng),
		hits:  corpusItems(),
		novel: append(corpusItems(), novelRingItems()...),
	}
}

// roundLen is the number of requests in one round.
func (s *servedStream) roundLen() int { return 5 * len(s.novel) }

func (s *servedStream) next() servedReq {
	if len(s.pending) == 0 {
		hits := make([]item, 4*len(s.novel))
		for i := range hits {
			hits[i] = s.hits[i%len(s.hits)]
		}
		s.rng.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
		novel := append([]item(nil), s.novel...)
		s.rng.Shuffle(len(novel), func(i, j int) { novel[i], novel[j] = novel[j], novel[i] })
		for i, it := range novel {
			for _, h := range hits[4*i : 4*i+4] {
				s.pending = append(s.pending, servedReq{id: h.id(), body: mustJSON(h.render(naming{}))})
			}
			s.pending = append(s.pending, servedReq{id: it.id(), body: mustJSON(it.render(s.nm.fresh(it.prog))), novel: true})
		}
	}
	r := s.pending[0]
	s.pending = s.pending[1:]
	return r
}

func (s *servedStream) take(n int) []servedReq {
	out := make([]servedReq, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("bench: marshal: " + err.Error()) // plain structs of strings cannot fail
	}
	return b
}

// postJSON sends one POST and decodes a 200 response into out.
func postJSON(ctx context.Context, client *http.Client, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// verdictOf posts a verdict request and checks it against the golden
// catalogue; a request that gets no verdict is a failure.
func verdictOf(ctx context.Context, client *http.Client, base string, g *goldenFile, rep *report, id string, body []byte) error {
	rep.attempt()
	var resp api.Response
	if err := postJSON(ctx, client, base+"/v1/verdict", body, &resp); err != nil {
		rep.fail(fmt.Errorf("%s: %w", id, err))
		return err
	}
	rep.checkVerdict(g, id, resp.Verdict)
	return nil
}

// runServed drives the served-mixed workload against a dcserved child:
// an open loop at the reference rate for latency and memory, then closed
// loops over both connections for the time the daemon takes to get
// through one round of the mix — the inverse of its capacity.
func runServed(ctx context.Context, e *env) (*report, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	stream := newServedStream(e.rng)
	rep := newReport()
	var d *daemon
	send := func(reqs []servedReq) func(ctx context.Context, i int) error {
		return func(ctx context.Context, i int) error {
			return verdictOf(ctx, client, d.base, e.golden, rep, reqs[i].id, reqs[i].body)
		}
	}
	setup := func() error {
		var err error
		if d, err = startDaemon(ctx, e.dcserved, client); err != nil {
			return err
		}
		for _, it := range stream.hits {
			if err := verdictOf(ctx, client, d.base, e.golden, rep, it.id(), mustJSON(it.render(naming{}))); err != nil {
				return err
			}
		}
		return nil
	}
	teardown := func() error {
		client.CloseIdleConnections()
		return d.stop()
	}
	setupS, err := repeatSetup(setup, teardown, e.scaled(warmUpShare))
	if d != nil {
		defer d.stop()
	}
	if err != nil {
		return nil, err
	}

	reqs := stream.take(max(1, int(referenceRate*e.scaled(referenceShare).Seconds())))
	ref := runStep(ctx, realClock{}, 2, referenceRate, len(reqs), send(reqs))
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	rss, err := d.peakRSSMiB()
	if err != nil {
		return nil, err
	}

	// Each closed-loop window sends whole rounds with every request due at
	// once; the windows' median round time is the run's figure, so one
	// collection of the daemon's growing heap moves one window only.
	var roundTimes []float64
	for w := 0; w < capacityWindows; w++ {
		start, rounds := time.Now(), 0
		for rounds == 0 || time.Since(start) < e.scaled(capacityShare/capacityWindows) {
			reqs := stream.take(stream.roundLen())
			runStep(ctx, realClock{}, 2, math.Inf(1), len(reqs), send(reqs))
			rounds++
		}
		roundTimes = append(roundTimes, time.Since(start).Seconds()/float64(rounds))
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	rep.set("setup_s", setupS, "s")
	rep.set("wall_s", median(roundTimes), "s")
	rep.latencies(ref.ok())
	rep.set("peak_rss_mib", rss, "MiB")
	rep.notef("latency: the open loop at %.0f req/s, due-time to response; the generator ran %.1f ms late at its end; peak_rss_mib is read after it",
		referenceRate, ms(ref.lateness))
	rep.notef("wall_s: one round of %d requests over 2 connections, closed loop, median of %d windows: %.0f req/s",
		stream.roundLen(), capacityWindows, float64(stream.roundLen())/median(roundTimes))
	return rep, nil
}
