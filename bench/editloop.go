package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"detcorr/internal/serve"
	"detcorr/internal/serve/api"
)

// editSession is one program's revision history in an editor session.
// Every save carries a fresh revision comment, so no two saves are the
// same text: each must be compiled and migrated, as a real save would be.
type editSession struct {
	nm  naming
	rev int
	src string // the current revision
}

func (s *editSession) render(r ring) string {
	s.rev++
	return fmt.Sprintf("# revision %d\n", s.rev) + r.source(s.nm)
}

// editStep is one save: the session moves from its current revision to
// variant (an edit of base, or base itself to undo one).
type editStep struct {
	session int
	variant ring
}

// editPlan lists one round of saves: for every base, every edit shape
// with perShape distinct seeded parameters, in a seeded order, each edit
// followed by the save that undoes it. The shapes and counts per round
// are fixed, so the percentiles do not move with the seed.
func editPlan(rng *rand.Rand, bases []editBase) []editStep {
	var edits []editStep
	for si, b := range bases {
		for _, shape := range editShapes(b.watched) {
			ps := editParams(shape, b.n, b.k)
			for _, pi := range rng.Perm(len(ps))[:min(b.perShape, len(ps))] {
				e := b.ring
				e.shape, e.param = shape, ps[pi]
				edits = append(edits, editStep{session: si, variant: e})
			}
		}
	}
	rng.Shuffle(len(edits), func(i, j int) { edits[i], edits[j] = edits[j], edits[i] })
	var plan []editStep
	for _, e := range edits {
		plan = append(plan, e, editStep{session: e.session, variant: bases[e.session].ring})
	}
	return plan
}

// editStream is the seeded input of the edit-loop workload: one session
// per base program, and round after round of saves across them.
type editStream struct {
	rng      *rand.Rand
	bases    []editBase
	sessions []*editSession
}

// editSave is one save of a session, from its old revision to new.
type editSave struct {
	session  int
	variant  ring
	old, new string
}

func newEditStream(rng *rand.Rand) *editStream {
	nm := newNamer(rng)
	s := &editStream{rng: rng, bases: editBases()}
	for _, b := range s.bases {
		es := &editSession{nm: nm.stable(b.ring)}
		es.src = es.render(b.ring)
		s.sessions = append(s.sessions, es)
	}
	return s
}

// round returns one round of saves and moves every session to the last
// revision of the round.
func (s *editStream) round() []editSave {
	var out []editSave
	for _, st := range editPlan(s.rng, s.bases) {
		es := s.sessions[st.session]
		next := es.render(st.variant)
		out = append(out, editSave{session: st.session, variant: st.variant, old: es.src, new: next})
		es.src = next
	}
	return out
}

// editRequests are the three verdict requests of a save of variant.
func editRequests(variant ring, src string) []question {
	var qs []question
	for _, it := range editChecks(variant) {
		req := it.req
		req.Program = src
		qs = append(qs, question{it.id(), req})
	}
	return qs
}

// rssRounds is the round after which edit-loop reads the daemon's memory.
const rssRounds = 5

// runEditLoop drives the edit-loop workload: a closed loop of saves
// against a dcserved child. A save is POST /v1/revise (old -> new)
// followed by the closure, convergence and deadlock verdicts of the new
// revision; its latency runs from the revise request to the third verdict.
func runEditLoop(ctx context.Context, e *env) (*report, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	rep := newReport()
	stream := newEditStream(e.rng)

	var d *daemon
	verdicts := func(qs []question) error {
		for _, q := range qs {
			if err := verdictOf(ctx, client, d.base, e.golden, rep, q.id, mustJSON(q.req)); err != nil {
				return err
			}
		}
		return nil
	}
	// Set-up: a fresh daemon answers the first revision of each program.
	setup := func() error {
		var err error
		if d, err = startDaemon(ctx, e.dcserved, client); err != nil {
			return err
		}
		for i, b := range stream.bases {
			if err := verdicts(editRequests(b.ring, stream.sessions[i].src)); err != nil {
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

	var lat, rounds []float64
	var preserved, invalidated int
	var rss float64
	start := time.Now()
	for moreRounds(start, rounds, e.seconds) {
		roundStart := time.Now()
		for _, save := range stream.round() {
			t := time.Now()
			rep.attempt()
			var rev serve.ReviseReport
			if err := postJSON(ctx, client, d.base+"/v1/revise", mustJSON(api.ReviseRequest{Old: save.old, New: save.new}), &rev); err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				rep.fail(fmt.Errorf("revise to %s: %w", save.variant.key(), err))
				continue
			}
			if err := verdicts(editRequests(save.variant, save.new)); err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				continue
			}
			lat = append(lat, ms(time.Since(t)))
			preserved += rev.VerdictsPreserved
			invalidated += rev.VerdictsInvalidated
		}
		rounds = append(rounds, time.Since(roundStart).Seconds())
		// Every save compiles a new revision, and the daemon keeps part of
		// each for good, so memory grows with the number of saves; reading
		// it after a fixed number of rounds keeps runs comparable.
		if len(rounds) <= rssRounds {
			if rss, err = d.peakRSSMiB(); err != nil {
				return nil, err
			}
		}
	}

	rep.set("setup_s", setupS, "s")
	rep.set("wall_s", median(rounds), "s")
	rep.latencies(lat)
	rep.set("peak_rss_mib", rss, "MiB")
	rep.notef("%d rounds of %d saves in %.1f s; %d verdicts preserved and %d invalidated across revisions; peak_rss_mib after round %d",
		len(rounds), len(lat)/max(1, len(rounds)), time.Since(start).Seconds(), preserved, invalidated, min(len(rounds), rssRounds))
	return rep, nil
}
