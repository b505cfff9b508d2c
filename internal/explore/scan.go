package explore

import (
	"context"
	"fmt"

	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// Scan is the streaming counterpart of Build: a breadth-first sweep over the
// compiled kernel that reports states and transitions to caller-supplied
// visitors as they are discovered, without materializing the CSR arenas,
// in-lists, or enabledness bitsets. Counterexample hunts — safety
// violations, closure violations, deadlock probes — terminate at the first
// hit, so they pay for the states visited up to the witness instead of a
// full graph assembly; memory stays O(visited states).

// ScanOptions configure a streaming scan. A hunt (Hunt, FindDeadlock)
// takes the same options. Once a hunt has discovered every state of the
// schema it stops enumerating transitions: no claim can be fresh any more,
// so its witness and its MaxStates outcome are those of a full sweep.
type ScanOptions struct {
	// Fair marks program actions, as in Options.Fair: nil means all fair.
	// Fairness only affects the Deadlock visitor (no enabled fair action).
	Fair []bool
	// MaxStates bounds the number of discovered states, exactly as in
	// Options.MaxStates: the scan fails with ErrStateBound iff the number of
	// distinct discovered states exceeds the bound.
	MaxStates int
	// InitOnly restricts the scan to the states satisfying init (ascending
	// index order, no successor closure): each init state is visited and its
	// immediate transitions reported, but targets are not expanded. This is
	// the shape of closure checks — one pass, O(1) memory.
	InitOnly bool
	// MemBudget and SpillDir mean what they mean in Options: a positive
	// budget is a ceiling on the scan's resident set, spilling the visited
	// set, the FIFO frontier and a hunt's parent log to disk past it; 0
	// defers to SetDefaultSpill; negative keeps everything in RAM.
	// The scan is the same code either way and visits states in the same
	// FIFO order, so verdicts and witnesses are unchanged. Because a scan
	// never assembles a graph, the budget bounds the whole verdict — this
	// is the path for super-RAM systems.
	MemBudget int64
	SpillDir  string
}

// ScanStats summarizes a scan.
type ScanStats struct {
	States  int  // states discovered (InitOnly: init states visited)
	Edges   int  // transitions enumerated
	Stopped bool // a visitor terminated the scan early
}

// Scanner bundles the per-discovery visitors. Each is optional; returning
// false stops the scan (ScanStats.Stopped reports it). The states passed to
// visitors are views into reusable rows valid only for the duration of the
// call — retain one with p.Schema().StateAt(s.Index()).
type Scanner struct {
	// Visit runs once per discovered state, in BFS order (InitOnly:
	// ascending index order), before the state's transitions.
	Visit func(s state.State) bool
	// Edge runs once per enumerated transition, in kernel (action) order.
	// fresh reports that to was discovered by this transition (always false
	// in InitOnly mode).
	Edge func(from, to state.State, action int, fresh bool) bool
	// Deadlock runs for each visited state with no enabled fair action,
	// after Visit and before the state's transitions.
	Deadlock func(s state.State) bool
}

// Scan streams the states reachable from init (or, with InitOnly, exactly
// the init states) through the Scanner. The traversal is deterministic:
// initial states in ascending index order, then a FIFO frontier expanded in
// discovery order with each state's transitions in kernel order — the same
// tie-breaking as the graph path's PathBetween, so first-hit witnesses
// coincide with the graph-derived ones.
func Scan(p *guarded.Program, init state.Predicate, opts ScanOptions, v Scanner) (ScanStats, error) {
	return ScanCtx(context.Background(), p, init, opts, v)
}

// ScanCtx is Scan under a context: cancellation stops the sweep with
// ctx.Err() (not a Stopped stat — the scan did not run to a verdict). The
// context is polled every cancelPollMask+1 seeded or visited states, the
// same granularity as the engine behind BuildCtx.
func ScanCtx(ctx context.Context, p *guarded.Program, init state.Predicate, opts ScanOptions, v Scanner) (ScanStats, error) {
	st := &bfsStore{} // an InitOnly scan keeps no visited set or frontier
	if !opts.InitOnly {
		var err error
		if st, err = openStore(opts.MemBudget, opts.SpillDir); err != nil {
			return ScanStats{}, err
		}
		defer st.finish()
	}
	return scan(ctx, st, p, init, opts, v, nil)
}

// scan is ScanCtx on an open store, with a parent hook: when onFresh is
// set, it runs with the indices of every freshly discovered state and the
// state whose transition discovered it, before the Edge visitor. A hook
// that only needs indices spares the scan decoding each successor; its
// error aborts the scan.
//
// A scan with a parent hook and no Edge visitor is a hunt (see Hunt), and
// it stops enumerating transitions once it has discovered every state of
// the schema: from then on no claim can be fresh, so the remaining frontier
// states only run their Visit and Deadlock visitors. A plain scan keeps
// enumerating, so ScanStats.Edges counts every transition.
func scan(ctx context.Context, st *bfsStore, p *guarded.Program, init state.Predicate, opts ScanOptions, v Scanner, onFresh func(to, from uint64) error) (ScanStats, error) {
	var stats ScanStats
	if err := p.Schema().Indexable(); err != nil {
		return stats, err
	}
	fair := opts.Fair
	if fair == nil {
		fair = make([]bool, p.NumActions())
		for i := range fair {
			fair[i] = true
		}
	}
	if len(fair) != p.NumActions() {
		return stats, fmt.Errorf("explore: fairness mask has %d entries for %d actions", len(fair), p.NumActions())
	}
	k := sharedKernel(p)
	sch := k.Schema()
	total, _ := sch.NumStates()
	sc := k.NewScratch()
	rowT := make([]int32, sch.NumVars())
	viewT := sch.ViewState(rowT)
	numActs := k.NumActions()
	hunting := onFresh != nil && v.Edge == nil
	discovered := uint64(0)
	var buf []guarded.Succ

	deadlocked := func() bool {
		for a := 0; a < numActs; a++ {
			if fair[a] && sc.Enabled(a) {
				return false
			}
		}
		return true
	}
	// expand visits one state, decoding it once into the kernel scratch,
	// and reports its transitions; claim is nil in InitOnly mode. claim
	// errors — the state bound, spill I/O failure, a corrupt spill file —
	// abort the scan.
	expand := func(idx uint64, claim func(to uint64) (fresh bool, err error)) (cont bool, err error) {
		if stats.States&cancelPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		stats.States++
		view := sc.View(idx)
		if v.Visit != nil && !v.Visit(view) {
			return false, nil
		}
		if v.Deadlock != nil && deadlocked() && !v.Deadlock(view) {
			return false, nil
		}
		if v.Edge == nil && (claim == nil || (hunting && discovered == total)) {
			return true, nil
		}
		buf = sc.Transitions(idx, buf[:0])
		for _, tr := range buf {
			stats.Edges++
			fresh := false
			if claim != nil {
				var err error
				fresh, err = claim(tr.To)
				if err != nil {
					return false, err
				}
				if fresh && onFresh != nil {
					if err := onFresh(tr.To, idx); err != nil {
						return false, err
					}
				}
			}
			if v.Edge != nil {
				sch.DecodeInto(rowT, tr.To)
				if !v.Edge(view, viewT, int(tr.Action), fresh) {
					return false, nil
				}
			}
		}
		return true, nil
	}

	row := make([]int32, sch.NumVars()) // scanInit's odometer
	if opts.InitOnly {
		var scanErr error
		count := 0
		scanInit(sch, init, 0, total, row, func(idx uint64) bool {
			count++
			if opts.MaxStates > 0 && count > opts.MaxStates {
				scanErr = boundError(opts.MaxStates)
				return false
			}
			cont, err := expand(idx, nil)
			if err != nil {
				scanErr = err
				return false
			}
			if !cont {
				stats.Stopped = true
				return false
			}
			return true
		})
		return stats, scanErr
	}

	// The visited set and the FIFO frontier come from the store: in RAM, or
	// spilled under a memory budget. Both keep the exact same discovery
	// order, so everything above — visitors, witnesses, verdicts — is
	// oblivious to the choice.
	visited := st.ownedClaims(newSpillPartitioner(total, defaultSpillPartitions), 1, total)[0]
	frontier := st.newFrontier(int(st.budget / 4))
	defer frontier.close()
	claim := func(to uint64) (bool, error) {
		fresh, err := visited(to)
		if err != nil || !fresh {
			return false, err
		}
		if opts.MaxStates > 0 && discovered >= uint64(opts.MaxStates) {
			return false, boundError(opts.MaxStates)
		}
		discovered++
		return true, frontier.push(to)
	}
	var seedErr error
	seedTick := 0
	scanInit(sch, init, 0, total, row, func(idx uint64) bool {
		if seedTick&cancelPollMask == 0 {
			if err := ctx.Err(); err != nil {
				seedErr = err
				return false
			}
		}
		seedTick++
		if _, err := claim(idx); err != nil {
			seedErr = err
			return false
		}
		return true
	})
	if seedErr != nil {
		return stats, seedErr
	}
	for {
		idx, ok, err := frontier.pop()
		if err != nil {
			return stats, err
		}
		if !ok {
			return stats, nil
		}
		cont, err := expand(idx, claim)
		if err != nil {
			return stats, err
		}
		if !cont {
			stats.Stopped = true
			return stats, nil
		}
	}
}

// FindDeadlock searches for a reachable state with no enabled fair action
// and returns a shortest witness trace from an init state to it (BFS with
// the same tie-breaking as PathBetween on the built graph, so the witness
// matches the graph path exactly). It reports false when every reachable
// state has an enabled fair action. The search is a Hunt: it streams over
// the kernel — no graph is assembled — stops at the first deadlock found,
// and stops enumerating transitions once it has discovered the whole state
// space (from state.True, seeding alone does that).
func FindDeadlock(p *guarded.Program, init state.Predicate, opts ScanOptions) ([]state.State, bool, error) {
	return FindDeadlockCtx(context.Background(), p, init, opts)
}

// FindDeadlockCtx is FindDeadlock under a context; cancellation aborts the
// streaming hunt with ctx.Err().
func FindDeadlockCtx(ctx context.Context, p *guarded.Program, init state.Predicate, opts ScanOptions) ([]state.State, bool, error) {
	return Hunt(ctx, p, init, opts, Scanner{Deadlock: func(state.State) bool { return false }})
}

// Hunt searches the states reachable from init for the first one, in BFS
// order, that v's Visit or Deadlock visitor rejects (returns false at), and
// returns a shortest witness trace from an init state to it, with the same
// tie-breaking as PathBetween on the built graph. It reports false when the
// visitors accept every reachable state. A hunt takes no Edge visitor.
//
// The hunt records the BFS tree on the store's parent log — in RAM, or
// under a memory budget on disk, since it is the last O(states) structure
// of the hunt — and reconstructs the witness chain by a single reverse scan
// of the log (a parent is always recorded before its children, so one
// backward pass suffices). Once every state of the schema is discovered, no
// claim can be fresh, so the hunt stops enumerating transitions and runs
// only the visitors on the remaining frontier; this is exact, whatever init
// is, and the MaxStates bound stays exact because no state is left to
// discover.
func Hunt(ctx context.Context, p *guarded.Program, init state.Predicate, opts ScanOptions, v Scanner) ([]state.State, bool, error) {
	if v.Edge != nil {
		return nil, false, fmt.Errorf("explore: a hunt takes no Edge visitor")
	}
	opts.InitOnly = false
	var hit uint64
	found := false
	stopAt := func(test func(state.State) bool) func(state.State) bool {
		if test == nil {
			return nil
		}
		return func(s state.State) bool {
			if test(s) {
				return true
			}
			hit, found = s.Index(), true
			return false
		}
	}

	st, err := openStore(opts.MemBudget, opts.SpillDir)
	if err != nil {
		return nil, false, err
	}
	defer st.finish()
	log := st.newParentLog(int(st.budget / 4))
	defer log.close()
	_, err = scan(ctx, st, p, init, opts, Scanner{Visit: stopAt(v.Visit), Deadlock: stopAt(v.Deadlock)}, log.record)
	if err != nil || !found {
		return nil, false, err
	}
	chain, err := log.chain(hit)
	if err != nil {
		return nil, false, err
	}
	sch := p.Schema()
	states := make([]state.State, len(chain))
	for i, idx := range chain {
		states[i] = sch.StateAt(idx)
	}
	return states, true, nil
}
