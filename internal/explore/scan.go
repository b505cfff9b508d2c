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

// ScanOptions configure a streaming scan.
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
	// MemBudget, SpillDir, and Partitions select the out-of-core path,
	// exactly as in Options: a positive budget bounds the scan's resident
	// set by spilling the visited set and the FIFO frontier to disk, 0
	// defers to SetDefaultSpill, negative forces in-RAM. The spilled scan
	// visits states in the identical FIFO order, so verdicts and witnesses
	// are unchanged. Because a scan never assembles a graph, the budget
	// bounds the whole verdict — this is the path for super-RAM systems.
	MemBudget  int64
	SpillDir   string
	Partitions int
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
// context is polled once per visited state, the same granularity as the
// engines behind BuildCtx.
func ScanCtx(ctx context.Context, p *guarded.Program, init state.Predicate, opts ScanOptions, v Scanner) (ScanStats, error) {
	return scan(ctx, p, init, opts, v, nil)
}

// scan is ScanCtx with a parent hook: when onFresh is set, it runs with the
// indices of every freshly discovered state and the state whose transition
// discovered it, before the Edge visitor. A hook that only needs indices
// spares the scan decoding each successor; its error aborts the scan.
func scan(ctx context.Context, p *guarded.Program, init state.Predicate, opts ScanOptions, v Scanner, onFresh func(to, from uint64) error) (ScanStats, error) {
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
	nv := sch.NumVars()
	rowF := make([]int32, nv)
	rowT := make([]int32, nv)
	viewF := sch.ViewState(rowF)
	viewT := sch.ViewState(rowT)
	numActs := k.NumActions()
	var buf []guarded.Succ

	deadlocked := func() bool {
		for a := 0; a < numActs; a++ {
			if fair[a] && sc.EnabledOnRow(rowF, a) {
				return false
			}
		}
		return true
	}
	// expand visits one state (already decoded into rowF) and reports its
	// transitions; claim is nil in InitOnly mode. claim errors — the state
	// bound, spill I/O failure, a corrupt spill file — abort the scan.
	expand := func(idx uint64, claim func(to uint64) (fresh bool, err error)) (cont bool, err error) {
		if stats.States&cancelPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		stats.States++
		if v.Visit != nil && !v.Visit(viewF) {
			return false, nil
		}
		if v.Deadlock != nil && deadlocked() && !v.Deadlock(viewF) {
			return false, nil
		}
		if v.Edge == nil && claim == nil {
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
				if !v.Edge(viewF, viewT, int(tr.Action), fresh) {
					return false, nil
				}
			}
		}
		return true, nil
	}

	if opts.InitOnly {
		var scanErr error
		count := 0
		scanInit(sch, init, 0, total, rowF, func(idx uint64) bool {
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

	// The FIFO frontier and visited set come in two shapes: in-RAM (a slice
	// and the engines' visitedSet) or disk-spilled under a memory budget.
	// Both preserve the exact same discovery order, so everything above —
	// visitors, witnesses, verdicts — is oblivious to the choice.
	discovered := 0
	var (
		claim func(to uint64) (bool, error)
		next  func() (uint64, bool, error)
	)
	if cfg, ok := resolveSpill(opts.MemBudget, opts.SpillDir, opts.Partitions); ok {
		run, err := newSpillRun(cfg)
		if err != nil {
			return stats, err
		}
		defer run.finish()
		visited := run.newVisited(total)
		frontier := newSpillFrontier(run.dir, int(cfg.budget/4))
		defer frontier.close()
		claim = func(to uint64) (bool, error) {
			fresh, err := visited.claim(to)
			if err != nil || !fresh {
				return false, err
			}
			if opts.MaxStates > 0 && discovered >= opts.MaxStates {
				return false, boundError(opts.MaxStates)
			}
			discovered++
			return true, frontier.push(to)
		}
		next = frontier.pop
	} else {
		visited := newVisitedSet(total)
		var queue []uint64
		head := 0
		claim = func(to uint64) (bool, error) {
			if !visited.claim(to) {
				return false, nil
			}
			if opts.MaxStates > 0 && discovered >= opts.MaxStates {
				return false, boundError(opts.MaxStates)
			}
			discovered++
			queue = append(queue, to)
			return true, nil
		}
		next = func() (uint64, bool, error) {
			if head >= len(queue) {
				return 0, false, nil
			}
			idx := queue[head]
			head++
			return idx, true, nil
		}
	}
	var seedErr error
	seedTick := 0
	scanInit(sch, init, 0, total, rowF, func(idx uint64) bool {
		if seedTick++; seedTick&cancelPollMask == 0 {
			if err := ctx.Err(); err != nil {
				seedErr = err
				return false
			}
		}
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
		idx, ok, err := next()
		if err != nil {
			return stats, err
		}
		if !ok {
			return stats, nil
		}
		sch.DecodeInto(rowF, idx)
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
// state has an enabled fair action. The search streams over the kernel —
// no graph is assembled — and stops at the first deadlock found.
func FindDeadlock(p *guarded.Program, init state.Predicate, opts ScanOptions) ([]state.State, bool, error) {
	return FindDeadlockCtx(context.Background(), p, init, opts)
}

// FindDeadlockCtx is FindDeadlock under a context; cancellation aborts the
// streaming hunt with ctx.Err(). Under a memory budget the BFS parent map
// — the last O(states) structure of the hunt — is replaced by an on-disk
// parent log, and the witness chain is reconstructed by a single reverse
// scan of the log (a parent is always recorded before its children, so one
// backward pass suffices).
func FindDeadlockCtx(ctx context.Context, p *guarded.Program, init state.Predicate, opts ScanOptions) ([]state.State, bool, error) {
	opts.InitOnly = false
	sch := p.Schema()
	var deadIdx uint64
	found := false
	deadlock := func(s state.State) bool {
		deadIdx = s.Index()
		found = true
		return false
	}

	if cfg, ok := resolveSpill(opts.MemBudget, opts.SpillDir, opts.Partitions); ok {
		run, err := newSpillRun(cfg)
		if err != nil {
			return nil, false, err
		}
		defer run.finish()
		log := newParentLog(run.dir, int(cfg.budget/4))
		defer log.close()
		_, err = scan(ctx, p, init, opts, Scanner{Deadlock: deadlock}, log.record)
		if err != nil || !found {
			return nil, false, err
		}
		chain, err := log.chain(deadIdx)
		if err != nil {
			return nil, false, err
		}
		states := make([]state.State, len(chain))
		for i, idx := range chain {
			states[i] = sch.StateAt(idx)
		}
		return states, true, nil
	}

	parent := map[uint64]uint64{}
	_, err := scan(ctx, p, init, opts, Scanner{Deadlock: deadlock}, func(to, from uint64) error {
		parent[to] = from
		return nil
	})
	if err != nil || !found {
		return nil, false, err
	}
	var rev []state.State
	idx := deadIdx
	for {
		rev = append(rev, sch.StateAt(idx))
		p, ok := parent[idx]
		if !ok {
			break
		}
		idx = p
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true, nil
}
