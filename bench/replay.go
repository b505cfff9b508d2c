package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"detcorr/internal/core"
	"detcorr/internal/explore"
	"detcorr/internal/fault"
	"detcorr/internal/flow"
	"detcorr/internal/gcl"
	"detcorr/internal/guarded"
	"detcorr/internal/lint"
	"detcorr/internal/prove"
	"detcorr/internal/serve"
	"detcorr/internal/serve/api"
	"detcorr/internal/spec"
	"detcorr/internal/state"
)

// The replay decides a request the way serve.Eval does, but with every
// rung of the decision ladder called from here — one public function per
// step — so each layer gets its own span. The program is loaded through
// the same steps as serve.LoadSource without registering it with the
// prover's or the slicer's hooks: the replay consults its own prover
// system and slices, in today's order for each check:
//
//	closure:     prove -> cached graph -> slice -> scan
//	components:  cached graph -> prove -> slice -> build
//	convergence: slice -> build -> CheckEventually
//
// Every replayed verdict is checked against serve.Eval's, so a replay
// that drifts from the pipeline fails the run instead of timing something
// else.

// unit is one program the ladder runs on: a request's program, or a
// slice of it. Its memos mirror what certification keeps per program.
type unit struct {
	f      *gcl.File
	sys    *prove.System // nil when the prover cannot derive a system
	info   *flow.Info    // nil for slices, which are never slice-certified
	proved map[string]bool
	slices map[string]*unit // nil entry: slicing does not apply
}

func newUnit(f *gcl.File, sys *prove.System, info *flow.Info) *unit {
	return &unit{f: f, sys: sys, info: info, proved: map[string]bool{}, slices: map[string]*unit{}}
}

type replayer struct {
	ctx context.Context
	rec *recorder
}

// load compiles src through the steps of serve.LoadSource: parse, lint,
// compile, and the prover's and slicer's certification work.
func (r *replayer) load(src string) (*unit, error) {
	end := r.rec.begin("gcl.parse")
	ast, err := gcl.Parse(src)
	end()
	if err != nil {
		return nil, err
	}
	end = r.rec.begin("lint.analyze")
	diags := lint.Analyze("request.gcl", ast, src)
	end()
	if err := lint.Errors(diags); err != nil {
		return nil, err
	}
	end = r.rec.begin("gcl.compile")
	f, err := gcl.Compile(ast)
	end()
	if err != nil {
		return nil, err
	}
	f.Src = src
	end = r.rec.begin("prove.certify")
	sys, err := prove.NewSystem(ast)
	end()
	if err != nil {
		sys = nil // certification is best-effort, as in serve
	}
	end = r.rec.begin("flow.certify")
	var info *flow.Info
	if flow.ValidateWrites(f) == nil {
		info = flow.Analyze(ast)
	}
	end()
	return newUnit(f, sys, info), nil
}

// isVerdictErr tells a property violation from an operational failure,
// as serve does.
func isVerdictErr(err error) bool {
	var cv *spec.ClosureViolation
	var lv *explore.LivenessViolation
	var ce *core.ConditionError
	return errors.As(err, &cv) || errors.As(err, &lv) || errors.As(err, &ce)
}

func resolve(f *gcl.File, name string) (state.Predicate, error) {
	if name == "" || name == "true" {
		return state.True, nil
	}
	p, ok := f.Pred(name)
	if !ok {
		return state.Predicate{}, fmt.Errorf("no predicate %q", name)
	}
	return p, nil
}

func trivial(p state.Predicate) bool { return p.IsTrivial() || p.String() == "true" }

// decide replays one request and returns its verdict and the rung that
// decided it.
func (r *replayer) decide(u *unit, req api.Request) (verdict, rung string, err error) {
	verdictFrom := func(holds string, err error) (string, error) {
		switch {
		case err == nil:
			return holds, nil
		case isVerdictErr(err):
			return api.VerdictFails, nil
		}
		return "", err
	}
	switch req.Check {
	case api.CheckClosure:
		s, err := resolve(u.f, req.Invariant)
		if err != nil {
			return "", "", err
		}
		rung, err := r.closed(u, s)
		v, err := verdictFrom(api.VerdictHolds, err)
		return v, rung, err
	case api.CheckConvergence:
		s, err := resolve(u.f, req.Invariant)
		if err != nil {
			return "", "", err
		}
		g, err := resolve(u.f, req.Goal)
		if err != nil {
			return "", "", err
		}
		rung, err := r.converges(u, s, g)
		v, err := verdictFrom(api.VerdictHolds, err)
		return v, rung, err
	case api.CheckDetects, api.CheckCorrects:
		return r.component(u, req)
	case api.CheckDeadlock:
		v, err := r.deadlock(u, req)
		return v, "scan", err
	case api.CheckProve:
		end := r.rec.begin("prove.attempt")
		resp, err := serve.Eval(r.ctx, u.f, req)
		end()
		if err != nil {
			return "", "", err
		}
		r.rec.count("prove.attempts", 1)
		if resp.Verdict == api.VerdictProved {
			r.rec.count("prove.proved", 1)
		}
		return resp.Verdict, "prove", nil
	}
	return "", "", fmt.Errorf("replay: unknown check %q", req.Check)
}

// proveOnce runs one prover attempt per obligation key and program, as
// the certification registry caches them.
func (r *replayer) proveOnce(u *unit, key string, attempt func() bool) bool {
	if u.sys == nil {
		return false
	}
	if ok, seen := u.proved[key]; seen {
		return ok
	}
	end := r.rec.begin("prove.attempt")
	ok := attempt()
	end()
	r.rec.count("prove.attempts", 1)
	if ok {
		r.rec.count("prove.proved", 1)
	}
	u.proved[key] = ok
	return ok
}

// slice returns the unit's memoized slice for the named predicates, or
// nil when slicing does not apply, exactly as the slicer hook decides.
func (r *replayer) slice(u *unit, preds ...state.Predicate) *unit {
	if u.info == nil || !flow.Enabled() {
		return nil
	}
	var names []string
	for _, p := range preds {
		if trivial(p) {
			continue
		}
		if _, ok := u.info.Pred(p.String()); !ok {
			return nil
		}
		names = append(names, p.String())
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	key := strings.Join(names, ",")
	if sl, seen := u.slices[key]; seen {
		return sl
	}
	end := r.rec.begin("flow.slice")
	defer end()
	var out *unit
	cone, err := u.info.Cone(names...)
	if err == nil && len(cone.Vars) > 0 && len(cone.Vars) < len(u.info.Vars) {
		if sl, err := flow.SliceFile(u.f, names...); err == nil {
			endCert := r.rec.begin("prove.certify")
			sys, err := prove.NewSystem(sl.File.AST)
			endCert()
			if err != nil {
				sys = nil
			}
			out = newUnit(sl.File, sys, nil)
			r.rec.count("flow.slices", 1)
			r.rec.count("flow.state_ratio_sum", sl.SlicedStates/sl.FullStates)
		}
	}
	u.slices[key] = out
	return out
}

func slicedPred(sl *unit, p state.Predicate) (state.Predicate, bool) {
	if trivial(p) {
		return state.True, true
	}
	return sl.f.Pred(p.String())
}

func (r *replayer) peek(p *unit, init state.Predicate) (*explore.Graph, bool) {
	end := r.rec.begin("explore.cache")
	defer end()
	return explore.Peek(p.f.Program, init, explore.Options{})
}

// closed replays spec.CheckClosedCtx: prove, cached graph, slice, scan.
func (r *replayer) closed(u *unit, s state.Predicate) (string, error) {
	if r.proveOnce(u, "closure:"+s.String(), func() bool {
		rep, err := prove.ProveClosure(u.sys, s.String())
		return err == nil && rep.Verdict == prove.Proved
	}) {
		return "prove", nil
	}
	g, ok := r.peek(u, s)
	if !ok {
		g, ok = r.peek(u, state.True)
	}
	if ok {
		end := r.rec.begin("spec.closed_on")
		defer end()
		return "cached", spec.CheckClosedOn(g, s)
	}
	if sl := r.slice(u, s); sl != nil {
		if sp, ok := slicedPred(sl, s); ok {
			if _, err := r.closed(sl, sp); err == nil {
				r.rec.count("flow.decided", 1)
				return "slice", nil
			}
		}
	}
	end := r.rec.begin("explore.scan")
	defer end()
	return "scan", spec.CheckPairCtx(r.ctx, u.f.Program, s, s)
}

// converges replays spec.CheckConvergesCtx: slice, the two closures,
// build, CheckEventually. A graph already cached — after a repair, say —
// decides on the "cached" rung.
func (r *replayer) converges(u *unit, s, goal state.Predicate) (string, error) {
	_, cached := r.peek(u, s)
	if !cached {
		if sl := r.slice(u, s, goal); sl != nil {
			ss, ok1 := slicedPred(sl, s)
			sg, ok2 := slicedPred(sl, goal)
			if ok1 && ok2 {
				if _, err := r.converges(sl, ss, sg); err == nil {
					r.rec.count("flow.decided", 1)
					return "slice", nil
				}
			}
		}
	}
	rung := "build"
	if cached {
		rung = "cached"
	}
	if _, err := r.closed(u, s); err != nil {
		return rung, err
	}
	if _, err := r.closed(u, goal); err != nil {
		return rung, err
	}
	g, err := r.build(u.f.Program, s, explore.Options{})
	if err != nil {
		return rung, err
	}
	end := r.rec.begin("explore.eventually")
	v := g.CheckEventually(g.SetOf(s), g.SetOf(goal))
	end()
	r.probeLiveness(g, goal, func(g *explore.Graph) (*explore.Bitset, *explore.Bitset) {
		return g.SetOf(s), g.SetOf(goal)
	})
	if v != nil {
		return rung, v
	}
	return rung, nil
}

// build is the shared-cache build every graph rung goes through. The
// states and edges of graphs it actually builds are counted.
func (r *replayer) build(p *guarded.Program, init state.Predicate, opts explore.Options) (*explore.Graph, error) {
	before := explore.CacheStats().Builds
	end := r.rec.begin("explore.build")
	start := r.rec.now()
	g, err := explore.SharedCtx(r.ctx, p, init, opts)
	took := r.rec.now() - start
	end()
	if err == nil && explore.CacheStats().Builds > before {
		r.rec.count("explore.states", float64(g.NumNodes()))
		r.rec.count("explore.edges", float64(g.NumEdges()))
		r.rec.count("explore.build_ns", float64(took))
	}
	return g, err
}

// component replays Detector/Corrector.CheckCtx and, when asked,
// CheckFTolerantCtx.
func (r *replayer) component(u *unit, req api.Request) (string, string, error) {
	z, err := resolve(u.f, req.Z)
	if err != nil {
		return "", "", err
	}
	x, err := resolve(u.f, req.X)
	if err != nil {
		return "", "", err
	}
	from, err := resolve(u.f, req.From)
	if err != nil {
		return "", "", err
	}
	kind := "detector"
	if req.Check == api.CheckCorrects {
		kind = "corrector"
	}
	rung, err := r.componentCheck(u, kind, z, x, from)
	if err != nil {
		if isVerdictErr(err) {
			return api.VerdictFails, rung, nil
		}
		return "", rung, err
	}
	if req.Tolerant != "" {
		if err := r.tolerant(u, kind, z, x, from, req.Tolerant); err != nil {
			if isVerdictErr(err) {
				return api.VerdictFails, rung, nil
			}
			return "", rung, err
		}
	}
	return api.VerdictHolds, rung, nil
}

func (r *replayer) componentCheck(u *unit, kind string, z, x, from state.Predicate) (string, error) {
	_, cached := r.peek(u, from)
	if !cached {
		if r.proveOnce(u, kind+":"+z.String()+"|"+x.String()+"|"+from.String(), func() bool {
			return prove.ProveComponent(u.sys, kind, z.String(), x.String(), from.String())
		}) {
			return "prove", nil
		}
		if sl := r.slice(u, z, x, from); sl != nil {
			sz, ok1 := slicedPred(sl, z)
			sx, ok2 := slicedPred(sl, x)
			su, ok3 := slicedPred(sl, from)
			if ok1 && ok2 && ok3 {
				if _, err := r.componentCheck(sl, kind, sz, sx, su); err == nil {
					r.rec.count("flow.decided", 1)
					return "slice", nil
				}
			}
		}
	}
	rung := "build"
	if cached {
		rung = "cached"
	}
	g, err := r.build(u.f.Program, from, explore.Options{})
	if err != nil {
		return rung, err
	}
	// With the graph cached, the checker takes its graph path: the
	// condition checks as linear set operations.
	end := r.rec.begin("core.check")
	if kind == "detector" {
		err = core.Detector{Name: u.f.Name, D: u.f.Program, Z: z, X: x, U: from}.CheckCtx(r.ctx)
	} else {
		err = core.Corrector{Name: u.f.Name, C: u.f.Program, Z: z, X: x, U: from}.CheckCtx(r.ctx)
	}
	end()
	if kind == "corrector" {
		// The corrector's Convergence condition: from every reachable
		// state, every fair computation reaches X.
		r.probeLiveness(g, x, func(g *explore.Graph) (*explore.Bitset, *explore.Bitset) {
			reach := g.Reach(g.SetOf(from), nil)
			goal := g.SetOf(x)
			goal.Intersect(reach)
			return reach, goal
		})
	}
	return rung, err
}

func (r *replayer) tolerant(u *unit, kind string, z, x, from state.Predicate, tol string) error {
	var k fault.Kind
	switch tol {
	case "failsafe", "fail-safe":
		k = fault.FailSafe
	case "nonmasking":
		k = fault.Nonmasking
	case "masking":
		k = fault.Masking
	default:
		return fmt.Errorf("replay: unknown tolerance %q", tol)
	}
	d := core.Detector{Name: u.f.Name, D: u.f.Program, Z: z, X: x, U: from}
	c := core.Corrector{Name: u.f.Name, C: u.f.Program, Z: z, X: x, U: from}
	end := r.rec.begin("fault.span")
	span, err := fault.ComputeSpanCtx(r.ctx, u.f.Program, u.f.Faults, from)
	end()
	if err != nil {
		return err
	}
	if k != fault.Nonmasking {
		// The fail-safe and masking conditions over the span are not
		// public on their own; the tolerant check runs them after its
		// fault-free check, which takes its graph path when the graph is
		// cached.
		end := r.rec.begin("core.check")
		defer end()
		if kind == "detector" {
			return d.CheckFTolerantCtx(r.ctx, u.f.Faults, k)
		}
		return c.CheckFTolerantCtx(r.ctx, u.f.Faults, k)
	}
	g, err := r.build(u.f.Program, span.Predicate, explore.Options{})
	if err != nil {
		return err
	}
	end = r.rec.begin("core.goodregion")
	var good *explore.Bitset
	if kind == "detector" {
		good = d.GoodRegion(g)
	} else {
		good = c.GoodRegion(g)
	}
	end()
	from2 := g.SetOf(span.Predicate)
	end = r.rec.begin("explore.eventually")
	v := g.CheckEventually(from2, good)
	end()
	if v != nil {
		return &core.ConditionError{Component: u.f.Name, Condition: "Convergence", Cause: v}
	}
	return nil
}

// deadlock replays serve's deadlock hunt: compose the fault class when
// asked, then scan.
func (r *replayer) deadlock(u *unit, req api.Request) (string, error) {
	from, err := resolve(u.f, req.From)
	if err != nil {
		return "", err
	}
	prog := u.f.Program
	var fair []bool
	if req.Faults && !u.f.Faults.Empty() {
		end := r.rec.begin("fault.compose")
		prog, fair, err = fault.Compose(u.f.Program, u.f.Faults)
		end()
		if err != nil {
			return "", err
		}
	}
	end := r.rec.begin("explore.scan")
	_, found, err := explore.FindDeadlockCtx(r.ctx, prog, from, explore.ScanOptions{Fair: fair, MaxStates: req.MaxStates})
	end()
	if err != nil {
		return "", err
	}
	if found {
		return api.VerdictDeadlock, nil
	}
	return api.VerdictDeadlockFree, nil
}

// probeLiveness times, on a graph a verdict just used, the post-graph
// algorithms CheckEventually and the component checks run inside: the
// reachability sweep, the SCC decomposition, the fair-cycle search, the
// largest closed subset, a closure check on the graph and a detector good
// region, for the liveness obligation from -> goal that sets computes.
// They run only when tracing, under a "probe" span that the replay's own
// time excludes.
func (r *replayer) probeLiveness(g *explore.Graph, goalPred state.Predicate, sets func(*explore.Graph) (from, goal *explore.Bitset)) {
	if !r.rec.on {
		return
	}
	began := r.rec.now()
	defer func() { r.rec.count("probe_ns", float64(r.rec.now()-began)) }()
	defer r.rec.begin("probe")()
	// A view with the same edges and a fresh memo: the probes must neither
	// read the verdict's memoized results nor leave theirs behind for the
	// next verdict on this graph.
	g = g.FilterEdges(func(int, explore.Edge) bool { return true })
	from, goal := sets(g)
	start := from.Clone()
	start.Subtract(goal)
	nonGoal := goal.Complement()
	end := r.rec.begin("explore.reach")
	reach := g.Reach(start, nonGoal)
	end()
	end = r.rec.begin("explore.scc")
	g.SCCs(reach)
	end()
	end = r.rec.begin("explore.faircycle")
	g.FairCycle(reach)
	end()
	end = r.rec.begin("explore.closed_subset")
	g.LargestClosedSubset(goal)
	end()
	end = r.rec.begin("spec.closed_on")
	_ = spec.CheckClosedOn(g, goalPred) // the verdict is not the point; the time is
	end()
	end = r.rec.begin("core.goodregion")
	core.Detector{D: g.Program(), Z: goalPred, X: goalPred, U: state.True}.GoodRegion(g)
	end()
}

// chain is one program's revision history in the replay: the current
// revision and the verdicts it has answered, which a revision keeps only
// where serve.Preservable approves — the keyed invalidation of dcserved's
// verdict cache.
type chain struct {
	u        *unit
	verdicts map[string]answered // by request, program excluded
}

type answered struct {
	req  api.Request
	resp *api.Response
}

func newChain(u *unit) *chain { return &chain{u: u, verdicts: map[string]answered{}} }

func verdictKey(req api.Request) string {
	req.Program = ""
	return string(mustJSON(req))
}

// revise replays POST /v1/revise: load the new revision, diff it against
// the old, migrate the old revision's cached graphs, and carry over the
// verdicts the edit provably cannot have changed.
func (r *replayer) revise(c *chain, newSrc string) error {
	nu, err := r.load(newSrc)
	if err != nil {
		return err
	}
	old := c.u
	end := r.rec.begin("flow.plan")
	plan := flow.PlanRepair(old.f.AST, nu.f.AST)
	im := flow.AffectedBy(old.f.AST, nu.f.AST)
	end()
	resolveInit := func(initName string) (state.Predicate, bool) {
		if initName == state.True.String() {
			return state.True, true
		}
		if plan.SamePreds[initName] {
			if p, ok := old.f.Pred(initName); ok {
				return p, true
			}
		}
		return state.Predicate{}, false
	}
	end = r.rec.begin("explore.migrate")
	st := explore.MigrateProgram(old.f.Program, nu.f.Program, plan.Graph, resolveInit)
	end()
	r.rec.count("explore.graphs_repaired", float64(st.Repaired))
	r.rec.count("explore.graphs_rebound", float64(st.Rebound))
	kept := map[string]answered{}
	for key, a := range c.verdicts {
		if serve.Preservable(a.req, a.resp, plan, im, nu.f) {
			kept[key] = a
		}
	}
	c.u, c.verdicts = nu, kept
	return nil
}

// verdict answers a request on the chain's current revision: from the
// carried-over verdicts when the revision preserved it, else by the
// ladder.
func (r *replayer) verdict(c *chain, req api.Request) (verdict, rung string, err error) {
	key := verdictKey(req)
	if a, ok := c.verdicts[key]; ok {
		return a.resp.Verdict, "preserved", nil
	}
	v, rung, err := r.decide(c.u, req)
	if err != nil {
		return "", rung, err
	}
	c.verdicts[key] = answered{req, &api.Response{Check: req.Check, Program: c.u.f.Name, Verdict: v}}
	return v, rung, nil
}
