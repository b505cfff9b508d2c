package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"detcorr/internal/explore"
	"detcorr/internal/flow"
	"detcorr/internal/gcl"
	"detcorr/internal/serve"
	"detcorr/internal/serve/api"
	"detcorr/internal/state"
	"detcorr/internal/verify"
	"detcorr/internal/watch"
)

// runWatch is the edit loop: poll one file, and on every revision re-lint,
// recompile, repair the cached graphs, and re-check only the verdicts the
// edit can have reached — everything else streams back as preserved. With
// -check it watches one property (same flags as dctl verdict); without, it
// watches the closure of every declared predicate.
func runWatch(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	fs.SetOutput(errOut)
	check := fs.String("check", "", "property to watch (default: closure of every declared predicate)")
	invariant := fs.String("invariant", "", "invariant predicate S (closure, convergence, prove)")
	goal := fs.String("goal", "", "goal predicate R (convergence, prove)")
	z := fs.String("z", "", "witness predicate Z (detects, corrects, prove)")
	x := fs.String("x", "", "detected/corrected predicate X (detects, corrects, prove)")
	from := fs.String("from", "", "starting predicate U (default true)")
	span := fs.String("span", "", "fault-span predicate for prove; auto infers one")
	rank := fs.String("rank", "", "comma-separated ranking function for prove convergence")
	tolerant := fs.String("tolerant", "", "also check F-tolerance: failsafe, nonmasking, or masking")
	faults := fs.Bool("faults", false, "compose the file's fault class into the deadlock hunt")
	maxStates := fs.Int("max-states", 0, "abort exploration beyond this many states (0 = unbounded)")
	interval := fs.Duration("interval", watch.DefaultInterval, "polling interval")
	maxRevisions := fs.Int("max-revisions", 0, "stop after this many revisions (0 = watch until interrupted)")
	applySpill := spillFlags(fs)
	if err := fs.Parse(argsAfterFile(args)); err != nil {
		return withCode(exitUsage, err)
	}
	if err := applySpill(); err != nil {
		return err
	}
	if len(args) == 0 || args[0] == "" || args[0][0] == '-' {
		return usageErrorf("usage: dctl watch <file.gcl> [-check <property> ...] [-interval d]")
	}
	path := args[0]

	requests := func(f *gcl.File) []api.Request {
		if *check != "" {
			return []api.Request{{
				Check: *check, Invariant: *invariant, Goal: *goal, Z: *z, X: *x,
				From: *from, Span: *span, Rank: *rank, Tolerant: *tolerant,
				Faults: *faults, MaxStates: *maxStates,
			}}
		}
		names := make([]string, 0, len(f.AST.Preds))
		for i := range f.AST.Preds {
			names = append(names, f.AST.Preds[i].Name)
		}
		sort.Strings(names)
		reqs := make([]api.Request, 0, len(names))
		for _, n := range names {
			reqs = append(reqs, api.Request{Check: api.CheckClosure, Invariant: n})
		}
		return reqs
	}

	w := &watcher{out: out}
	rev := 0
	err := watch.Poll(context.Background(), path, *interval, func(src string) bool {
		rev++
		w.revision(rev, path, src, requests)
		return *maxRevisions == 0 || rev < *maxRevisions
	})
	if err != nil {
		return err
	}
	return nil
}

// watcher carries the last good revision, as its ladder value, and its
// verdicts across polls.
type watcher struct {
	out   io.Writer
	last  *verify.Program
	cache map[string]*api.Response
}

// sig is a request's identity minus the program source, so verdicts can be
// carried across revisions of the same question.
func sig(req api.Request) string {
	req.Program = ""
	b, err := json.Marshal(req)
	if err != nil {
		panic("watch: marshal request: " + err.Error())
	}
	return string(b)
}

// describe renders a request for the streamed output.
func describe(req api.Request) string {
	parts := []string{req.Check}
	add := func(k, v string) {
		if v != "" {
			parts = append(parts, k+"="+v)
		}
	}
	add("invariant", req.Invariant)
	add("goal", req.Goal)
	add("z", req.Z)
	add("x", req.X)
	add("from", req.From)
	add("tolerant", req.Tolerant)
	if req.Faults {
		parts = append(parts, "+faults")
	}
	return strings.Join(parts, " ")
}

// revision processes one file revision: load (keeping the last good
// revision on failure), diff, migrate graphs, and re-check only what the
// edit affected. Each revision gets its own ladder value; the previous
// one's slice graphs are evicted once its graphs have migrated.
func (w *watcher) revision(rev int, path, src string, requests func(*gcl.File) []api.Request) {
	f, err := serve.LoadSource(src)
	if err != nil {
		fmt.Fprintf(w.out, "== rev %d %s: load failed, keeping last good revision\n   ! %v\n", rev, path, err)
		return
	}
	v := verify.New(f, nil)
	reqs := requests(f)

	var plan *flow.Plan
	var im *flow.Impact
	if w.last != nil {
		last := w.last.File()
		plan = flow.PlanRepair(last.AST, f.AST)
		im = flow.AffectedBy(last.AST, f.AST)
		var edits []string
		if len(im.ChangedVars) > 0 {
			edits = append(edits, "vars: "+strings.Join(im.ChangedVars, ","))
		}
		if len(im.ChangedPreds) > 0 {
			edits = append(edits, "preds: "+strings.Join(im.ChangedPreds, ","))
		}
		if len(im.ChangedActions) > 0 {
			edits = append(edits, "actions: "+strings.Join(im.ChangedActions, ","))
		}
		if len(im.ChangedFaults) > 0 {
			edits = append(edits, "faults: "+strings.Join(im.ChangedFaults, ","))
		}
		if len(edits) == 0 {
			edits = append(edits, "reformat only")
		}
		fmt.Fprintf(w.out, "== rev %d %s — %s; affected preds: %s\n",
			rev, path, strings.Join(edits, "; "), orNone(im.AffectedPreds))

		resolve := func(initName string) (state.Predicate, bool) {
			if initName == state.True.String() {
				return state.True, true
			}
			if plan.SamePreds[initName] {
				if p, ok := last.Pred(initName); ok {
					return p, true
				}
			}
			return state.Predicate{}, false
		}
		st := explore.MigrateProgram(last.Program, f.Program, plan.Graph, resolve)
		w.last.Evict()
		if st.Rebound+st.Repaired+st.Dropped > 0 {
			fmt.Fprintf(w.out, "   graphs: %d rebound, %d repaired, %d rebuilt\n",
				st.Rebound, st.Repaired, st.Dropped)
		}
	} else {
		fmt.Fprintf(w.out, "== rev %d %s\n", rev, path)
	}

	next := make(map[string]*api.Response, len(reqs))
	for _, req := range reqs {
		req.Program = src
		k := sig(req)
		if old := w.cache[k]; old != nil && serve.Preservable(req, old, plan, im, f) {
			next[k] = old
			fmt.Fprintf(w.out, "   = %s: %s (preserved)\n", describe(req), old.Verdict)
			continue
		}
		mark := "~"
		if w.last == nil || w.cache[sig(req)] == nil {
			mark = "+"
		}
		start := time.Now()
		resp, _, err := verify.Decide(context.Background(), v, req)
		if err != nil {
			fmt.Fprintf(w.out, "   ! %s: %v\n", describe(req), err)
			continue
		}
		next[k] = resp
		verdict := resp.Verdict
		if resp.Detail != "" {
			verdict += " — " + resp.Detail
		}
		fmt.Fprintf(w.out, "   %s %s: %s (%s)\n", mark, describe(req), verdict, time.Since(start).Round(time.Microsecond))
	}
	w.last = v
	w.cache = next
}

func orNone(names []string) string {
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ",")
}
