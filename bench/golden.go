package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"detcorr/internal/explore"
	"detcorr/internal/gcl"
	"detcorr/internal/serve"
)

// golden.json holds the expected verdict of every catalogue question,
// with its provenance: a claim of the paper (or of the literature the
// system comes from) where one exists, otherwise the reference path that
// -verify re-derives it through.
//
//go:embed golden.json
var goldenJSON []byte

type goldenEntry struct {
	Source  string `json:"source"`
	Verdict string `json:"verdict"`
}

type goldenFile struct {
	Comment  string                 `json:"comment"`
	Verdicts map[string]goldenEntry `json:"verdicts"`
}

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// check compares a verdict with the catalogue's.
func (g *goldenFile) check(id, verdict string) error {
	e, ok := g.Verdicts[id]
	if !ok {
		return fmt.Errorf("%s: no golden verdict", id)
	}
	if e.Verdict != verdict {
		return fmt.Errorf("%s: verdict %q, golden %q (%s)", id, verdict, e.Verdict, e.Source)
	}
	return nil
}

// referenceVerdict decides an item through the graph-only path: the source
// is compiled without prover or slicer certification, so closure,
// component and convergence checks run no prover or slicing rung — only
// cached graphs, scans and builds. A prove item's property is the prover
// itself, so it runs the prover. Every rendering also goes through the
// full load pipeline once, so a catalogue program that lint rejects fails
// here rather than mid-run.
func referenceVerdict(ctx context.Context, it item) (string, error) {
	src := it.prog.source(naming{name: sanitize(it.prog.key()), prefix: "x"})
	if _, err := serve.LoadSource(src); err != nil {
		return "", fmt.Errorf("%s: load: %w", it.id(), err)
	}
	f, err := gcl.ParseAndCompile(src)
	if err != nil {
		return "", fmt.Errorf("%s: compile: %w", it.id(), err)
	}
	req := it.req
	req.Program = src
	resp, err := serve.Eval(ctx, f, req)
	if err != nil {
		return "", fmt.Errorf("%s: %w", it.id(), err)
	}
	return resp.Verdict, nil
}

// runVerify re-derives every golden verdict and reports disagreements.
// golden.json is maintained by hand: a disagreement is a failure to look
// into, never a verdict to accept.
func runVerify(ctx context.Context, out io.Writer) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	items := allItems()
	asked := map[string]bool{}
	var bad []string
	start := time.Now()
	for _, it := range items {
		t := time.Now()
		v, err := referenceVerdict(ctx, it)
		explore.ResetCache()
		if err != nil {
			return err
		}
		asked[it.id()] = true
		e, ok := g.Verdicts[it.id()]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: %s, not in golden.json", it.id(), v))
		case e.Verdict != v:
			bad = append(bad, fmt.Sprintf("%s: reference path says %s, golden.json says %s (%s)", it.id(), v, e.Verdict, e.Source))
		}
		fmt.Fprintf(out, "%-52s %-14s %8.1f ms\n", it.id(), v, ms(time.Since(t)))
	}
	var stale []string
	for id := range g.Verdicts {
		if !asked[id] {
			stale = append(stale, id)
		}
	}
	sort.Strings(stale)
	for _, id := range stale {
		bad = append(bad, fmt.Sprintf("%s: in golden.json but not in the catalogue", id))
	}
	fmt.Fprintf(out, "verified %d items in %.1f s\n", len(items), time.Since(start).Seconds())
	for _, b := range bad {
		fmt.Fprintln(out, "MISMATCH", b)
	}
	if len(bad) > 0 {
		return fmt.Errorf("verify: %d disagreements with golden.json", len(bad))
	}
	return nil
}
