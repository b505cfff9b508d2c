// Package verify decides the paper's component relations — closure and
// convergence (Section 2.2.1), "Z detects X" (Section 3.1), "Z corrects X"
// (Section 4.1) and their tolerant forms — by walking one decision ladder
// whose rungs are ordered by cost. Exploration is exact; the prover and the
// cone-of-influence slicer are accelerators that never change a verdict,
// so the order of the rungs changes only the latency, never the bytes of a
// response.
//
// A Program is the per-program value the ladder runs on. It holds the
// compiled file and builds, lazily and at most once, the prover's System
// with its obligation memo and the dependence analysis with its slice
// memo. Whoever owns the value owns everything the program retains:
// dcserved's registry entry, one dctl watch revision, one dctl command.
// Dropping the value (after Evict, for graphs) drops all of it.
package verify

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"detcorr/internal/explore"
	"detcorr/internal/flow"
	"detcorr/internal/gcl"
	"detcorr/internal/prove"
	"detcorr/internal/state"
)

// exploreBelow is the ladder's size threshold T, in product states. A
// detects or corrects question whose compiled state space — or whose
// cone-of-influence slice — has at most this many states is explored
// before the prover is tried: exploration decides such spaces in seconds
// at worst, while a rank synthesis that fails can take minutes (see
// EXPERIMENTS.md §ladder for the curves it is calibrated from).
const exploreBelow = 1 << 20

// Rung names the step of the ladder that decided a verdict.
type Rung string

// The rungs, as Decide reports them.
const (
	RungProve  Rung = "prove"  // the prover discharged every obligation
	RungCached Rung = "cached" // a graph already in the exploration cache
	RungSlice  Rung = "slice"  // the cone-of-influence slice passed
	RungBuild  Rung = "build"  // a full-width graph was built
	RungScan   Rung = "scan"   // a streaming kernel scan, no graph
)

// Rungs lists every rung, in the order the metrics report them.
var Rungs = [...]Rung{RungProve, RungCached, RungSlice, RungBuild, RungScan}

// Program is one compiled program prepared for the ladder. It is safe for
// concurrent use.
type Program struct {
	f    *gcl.File
	warn func(error) // told once why a rung cannot be set up; may be nil

	// limit is exploreBelow, except in tests that force one order.
	limit float64
	// sliced marks a slice of another value: slices are never sliced again.
	sliced bool

	sysOnce sync.Once
	sys     *prove.System   // nil when the prover cannot derive a system
	proving chan struct{}   // one attempt at a time: System is not safe for concurrent use
	proved  map[string]bool // obligation key -> proved; guarded by proving

	infoOnce sync.Once
	info     *flow.Info // nil when slicing cannot apply

	mu     sync.Mutex
	slices map[string]*Program // target key -> slice; nil when slicing does not apply
}

// New prepares a compiled file for the ladder. Nothing is derived yet:
// the prover's system and the dependence analysis are built the first
// time a rung needs them. warn, when not nil, is told once per rung when
// that rung cannot be set up for the file (the prover cannot derive a
// system, or the compiled write sets disagree with the analysis); the
// rung is then skipped and the verdict is decided by the others.
func New(f *gcl.File, warn func(error)) *Program {
	return newProgram(f, warn, exploreBelow, false)
}

func newProgram(f *gcl.File, warn func(error), limit float64, sliced bool) *Program {
	return &Program{
		f:       f,
		warn:    warn,
		limit:   limit,
		sliced:  sliced,
		proving: make(chan struct{}, 1),
		proved:  map[string]bool{},
		slices:  map[string]*Program{},
	}
}

// File returns the compiled file the value was prepared from.
func (v *Program) File() *gcl.File { return v.f }

// Evict drops every graph the exploration cache holds for the program and
// for its slices, returning the number of states freed. The value stays
// usable; later verdicts rebuild what they need.
func (v *Program) Evict() int {
	freed := explore.EvictProgram(v.f.Program)
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, sl := range v.slices {
		if sl != nil {
			freed += sl.Evict()
		}
	}
	return freed
}

// Resident returns the states the exploration cache holds for the program
// and its slices.
func (v *Program) Resident() int {
	n := explore.ResidentOf(v.f.Program)
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, sl := range v.slices {
		if sl != nil {
			n += sl.Resident()
		}
	}
	return n
}

// small reports whether the compiled product space is at most the
// threshold, so that exploring it beats trying the prover first.
func (v *Program) small() bool {
	n, ok := v.f.Schema.NumStates()
	return ok && float64(n) <= v.limit
}

// system returns the prover's view of the program, deriving it on first
// use.
func (v *Program) system() *prove.System {
	v.sysOnce.Do(func() {
		if v.f.AST == nil {
			return
		}
		sys, err := prove.NewSystem(v.f.AST)
		if err != nil {
			v.warnf("prover rung skipped: %v", err)
			return
		}
		v.sys = sys
	})
	return v.sys
}

// attempt runs one memoized proof attempt. Only a finished attempt is
// memoized: a cancelled one proved nothing and refuted nothing, so the
// next request tries again.
func (v *Program) attempt(ctx context.Context, key string, try func(*prove.System) (bool, error)) (bool, error) {
	sys := v.system()
	if sys == nil {
		return false, nil
	}
	select {
	case v.proving <- struct{}{}:
	case <-ctx.Done():
		return false, ctx.Err()
	}
	defer func() { <-v.proving }()
	if ok, seen := v.proved[key]; seen {
		return ok, nil
	}
	ok, err := try(sys)
	if err != nil {
		return false, err
	}
	v.proved[key] = ok
	return ok, nil
}

// analysis returns the dependence analysis the slicer works from, on
// first use validating the compiled write sets against it.
func (v *Program) analysis() *flow.Info {
	v.infoOnce.Do(func() {
		if v.sliced || v.f.AST == nil || v.f.Program == nil {
			return
		}
		if err := flow.ValidateWrites(v.f); err != nil {
			v.warnf("slice rung skipped: %v", err)
			return
		}
		v.info = flow.Analyze(v.f.AST)
	})
	return v.info
}

// slice returns the memoized slice for the given predicates, or nil when
// slicing does not apply: it is disabled, this value is itself a slice,
// some non-trivial predicate is not declared in the file, or the cone is
// empty or covers every variable (no reduction, so the full check is
// strictly better). A slice keeps one program pointer per target set, so
// the graph cache makes repeated sliced checks one build cheap.
func (v *Program) slice(preds ...state.Predicate) *Program {
	if !flow.Enabled() {
		return nil
	}
	in := v.analysis()
	if in == nil {
		return nil
	}
	var names []string
	for _, p := range preds {
		if trivial(p) {
			continue
		}
		if _, ok := in.Pred(p.String()); !ok {
			return nil
		}
		names = append(names, p.String())
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	key := strings.Join(names, ",")
	v.mu.Lock()
	defer v.mu.Unlock()
	if sl, ok := v.slices[key]; ok {
		return sl
	}
	var sl *Program
	cone, err := in.Cone(names...)
	if err == nil && len(cone.Vars) > 0 && len(cone.Vars) < len(in.Vars) {
		if s, err := in.Slice(names...); err == nil {
			sl = newProgram(s.File, nil, v.limit, true)
		}
	}
	v.slices[key] = sl
	return sl
}

// pred resolves a predicate of the full file onto this value's file (a
// slice keeps the target predicates under their names).
func (v *Program) pred(p state.Predicate) (state.Predicate, bool) {
	if trivial(p) {
		return state.True, true
	}
	return v.f.Pred(p.String())
}

func trivial(p state.Predicate) bool { return p.IsTrivial() || p.String() == "true" }

func (v *Program) warnf(format string, args ...any) {
	if v.warn != nil {
		v.warn(fmt.Errorf(format, args...))
	}
}
