package explore

import (
	"context"
	"fmt"
	"sync"

	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// newAdjacencyGraph below fills Graph arenas; this file is a sanctioned
// builder.
//
//dc:mutates Graph

// Edge is a transition to node To produced by the action with index Action
// in the source program.
type Edge struct {
	Action int
	To     int
}

// Graph is an explicit-state transition system for a program: the nodes are
// the states reachable from an initial predicate (or the entire state
// space), and the labeled edges are the program's transitions.
//
// The representation is compressed sparse row (CSR) throughout. States live
// in one flat arena of n×nv int32 values decoded lazily into state.State
// views; out- and in-edges are flat slices indexed by per-node offset
// arrays; and per-action enabledness is precomputed into bitsets during
// assembly, so Deadlocked, the fairness engine, and the SCC passes never
// re-evaluate guards. The in-edge CSR is derived from the out-edges on the
// first In call: few checks walk edges backwards.
//
// Graphs are write-once: after assembly they are shared across the cache,
// across goroutines, and across memoized derived artifacts, so field
// writes are confined to the //dc:mutates builder files (the dcvet
// graphmut analyzer enforces it).
//
//dc:immutable
type Graph struct {
	prog   *guarded.Program
	schema *state.Schema
	nv     int // variables per state
	n      int // number of nodes

	vals []int32  // state arena: node id i occupies vals[i*nv : (i+1)*nv]
	idxs []uint64 // mixed-radix index per node, ascending (the id order)

	outOff   []uint32 // n+1 offsets into outEdges
	outEdges []Edge
	in       *inCSR // built on first use; shared by views with the same edges

	fair    []bool // fair[a]: action a is subject to weak fairness and counts for maximality
	numActs int

	enabled []*Bitset // enabled[a]: nodes where action a's guard holds
	dead    *Bitset   // nodes with no enabled fair action

	// memo caches derived artifacts (predicate bitsets, reachability,
	// liveness verdicts, fair SCCs) so repeated obligations on one graph
	// stop recomputing them. A pointer so that filtered views — which are
	// shallow copies with different edges or fairness — can swap in a fresh
	// one without racing the parent. nil disables memoization.
	memo *graphMemo
}

// Options configure graph construction. Every field that influences the
// built graph must be consulted by sharedKeyOf (the graph-cache key
// builder) or carry a //dc:nokey exemption; the dcvet cachekey analyzer
// enforces the invariant.
//
//dc:cachekey inputs
type Options struct {
	// Fair marks which actions are program actions (weakly fair, counted
	// for maximality). nil means all actions are fair. Fault actions of a
	// p ‖ F composition must be marked unfair: computations are only
	// p-fair and p-maximal (Section 2.3).
	Fair []bool
	// MaxStates bounds the number of explored states; 0 means no bound
	// beyond the schema's own limit. The bound is exact: Build fails with
	// ErrStateBound if and only if the number of distinct reachable states
	// exceeds MaxStates, and a failed Build records nothing.
	MaxStates int
	// Parallelism is the exploration's worker count: 1 (or any negative
	// value) explores on the calling goroutine, N > 1 splits the visited
	// set among N workers that each expand the states they own, and 0
	// defers to the process-wide default (see SetDefaultParallelism; one
	// worker unless raised). Node ids are canonically renumbered by state
	// index, so the graph does not depend on worker count or schedule.
	//
	//dc:nokey graphs are canonical — byte-identical at any worker count
	Parallelism int
	// MemBudget is a ceiling on the exploration's working structures: a
	// positive byte budget spills the visited set, the BFS frontiers and
	// the outboxes to disk past it (see DESIGN §3h). 0 defers to the
	// process-wide default (SetDefaultSpill; none unless raised); negative
	// keeps everything in RAM even when a default is set. The budget does
	// not cover the CSR arenas of the returned graph — verdicts over
	// super-RAM systems stream through Scan and FindDeadlock instead of
	// Build.
	//
	//dc:nokey graphs are canonical — byte-identical spilled or in-RAM
	MemBudget int64
	// SpillDir is the parent directory for spill files; "" means the OS
	// temp directory (or the SetDefaultSpill directory when the budget
	// came from the process default). Each exploration works in a private
	// subdirectory removed when it finishes.
	//
	//dc:nokey spill placement cannot change the built graph
	SpillDir string
}

// ErrStateBound is returned when exploration exceeds Options.MaxStates.
var ErrStateBound = fmt.Errorf("explore: state bound exceeded")

// Build explores the program from every state satisfying init and returns
// the induced transition graph. With init == state.True the graph covers the
// entire (finite) state space, which is what checks quantified over all
// states — such as invariant closure — require.
//
// Node ids are canonical: they ascend with the states' mixed-radix indices
// (state.State.Index), so the graph is identical — same states, ids, edges,
// and in-lists — at any worker count, in RAM or spilled, however the
// workers were scheduled. See Options.Parallelism.
//
// Successor generation runs on the compiled transition kernel
// (guarded.Compile): GCL-compiled actions execute native bytecode, all
// others go through the kernel's closure adapter. Both produce exactly the
// transitions Program.Successors would.
func Build(p *guarded.Program, init state.Predicate, opts Options) (*Graph, error) {
	return BuildCtx(context.Background(), p, init, opts)
}

// BuildCtx is Build under a context: cancellation aborts the exploration
// with ctx.Err() instead of running the state space to completion. The
// engine polls the context at expansion granularity (every discovered state
// costs at least one kernel call, so an abandoned build stops within a few
// hundred expansions), which keeps the zero-allocation hot path intact.
// A cancelled build returns no graph and records nothing.
func BuildCtx(ctx context.Context, p *guarded.Program, init state.Predicate, opts Options) (*Graph, error) {
	buildCount.Add(1)
	if err := p.Schema().Indexable(); err != nil {
		return nil, err
	}
	fair := opts.Fair
	if fair == nil {
		fair = make([]bool, p.NumActions())
		for i := range fair {
			fair[i] = true
		}
	}
	if len(fair) != p.NumActions() {
		return nil, fmt.Errorf("explore: fairness mask has %d entries for %d actions", len(fair), p.NumActions())
	}
	k := sharedKernel(p)
	st, err := openStore(opts.MemBudget, opts.SpillDir)
	if err != nil {
		return nil, err
	}
	exps, err := exploreBFS(ctx, k, init, opts.MaxStates, opts.workers(), st)
	st.finish()
	if err != nil {
		return nil, err
	}
	return assemble(k, append([]bool(nil), fair...), exps), nil
}

// inCSR is a graph's in-edge CSR, built from its out-edges the first time
// In is called. Graphs hold it by pointer so that views sharing the
// out-edges (a rebind, RestrictFair) share one build, while a view with
// other edges (FilterEdges) gets its own.
type inCSR struct {
	once  sync.Once
	off   []uint32 // n+1 offsets into edges
	edges []Edge
}

// inEdges returns the in-edge CSR, building it on first use. It inlines
// into In, so a built CSR costs an In call one atomic load.
func (g *Graph) inEdges() *inCSR {
	g.in.once.Do(g.buildIn)
	return g.in
}

// buildIn builds the in-edge CSR. A counting pass over sources in
// ascending id order makes each in-list ordered by source id (and, within
// one source, by out-edge position) — the determinism contract covers
// in-lists too.
func (g *Graph) buildIn() {
	off := make([]uint32, g.n+1)
	for i := range g.outEdges {
		off[g.outEdges[i].To+1]++
	}
	for i := 0; i < g.n; i++ {
		off[i+1] += off[i]
	}
	edges := make([]Edge, len(g.outEdges))
	cursor := make([]uint32, g.n)
	copy(cursor, off[:g.n])
	for v := 0; v < g.n; v++ {
		for _, e := range g.Out(v) {
			edges[cursor[e.To]] = Edge{Action: e.Action, To: v}
			cursor[e.To]++
		}
	}
	g.in.off, g.in.edges = off, edges
}

// Program returns the program the graph was built from.
func (g *Graph) Program() *guarded.Program { return g.prog }

// NumNodes returns the number of explored states.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of transitions.
func (g *Graph) NumEdges() int { return len(g.outEdges) }

// State returns the state of node id as a view into the graph's state arena
// (no copy). The view is immutable through the state API; callers must not
// write to slices derived from it.
func (g *Graph) State(id int) state.State {
	row := g.vals[id*g.nv : (id+1)*g.nv : (id+1)*g.nv]
	return g.schema.ViewState(row)
}

// idOf resolves a mixed-radix state index to its node id by binary search
// over the ascending idxs array.
func (g *Graph) idOf(idx uint64) (int, bool) {
	lo, hi := 0, g.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.idxs[mid] < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < g.n && g.idxs[lo] == idx {
		return lo, true
	}
	return 0, false
}

// NodeOf returns the node id of a state, if it was explored.
func (g *Graph) NodeOf(s state.State) (int, bool) {
	return g.idOf(s.Index())
}

// Out returns the outgoing edges of node id. The returned slice must not be
// modified.
func (g *Graph) Out(id int) []Edge { return g.outEdges[g.outOff[id]:g.outOff[id+1]] }

// In returns the incoming edges of node id (Edge.To holds the source). The
// returned slice must not be modified. The first call builds the graph's
// in-edge CSR; it is safe for concurrent use.
func (g *Graph) In(id int) []Edge {
	in := g.inEdges()
	return in.edges[in.off[id]:in.off[id+1]]
}

// FairAction reports whether action a is subject to weak fairness.
func (g *Graph) FairAction(a int) bool { return g.fair[a] }

// ActionName returns the name of action a in the source program.
func (g *Graph) ActionName(a int) string { return g.prog.Action(a).Name }

// SetOf returns the node set satisfying the predicate. Results for named
// predicates are memoized per graph (see memoizablePredName for the naming
// contract); the returned set is always the caller's to mutate.
func (g *Graph) SetOf(p state.Predicate) *Bitset {
	if b, ok := g.memoSetOf(p); ok {
		return b
	}
	return g.computeSetOf(p)
}

func (g *Graph) computeSetOf(p state.Predicate) *Bitset {
	b := NewBitset(g.n)
	if p.Row != nil {
		for id := 0; id < g.n; id++ {
			if p.Row(g.vals[id*g.nv : (id+1)*g.nv]) {
				b.Add(id)
			}
		}
		return b
	}
	for id := 0; id < g.n; id++ {
		if p.Holds(g.State(id)) {
			b.Add(id)
		}
	}
	return b
}

// All returns the set of all nodes.
func (g *Graph) All() *Bitset {
	b := NewBitset(g.n)
	b.Fill()
	return b
}

// Deadlocked reports whether node id has no enabled fair (program) action.
// Unfair actions (faults) do not rescue a deadlock: maximality is
// p-maximality (Section 2.3). The answer comes from the deadlock bitset
// precomputed during assembly.
func (g *Graph) Deadlocked(id int) bool { return g.dead.Has(id) }

// DeadlockSet returns the set of deadlocked nodes. The returned set is the
// graph's own precomputed bitset; callers must not modify it.
func (g *Graph) DeadlockSet() *Bitset { return g.dead }

// Enabled reports whether action a is enabled at node id (precomputed).
func (g *Graph) Enabled(id, a int) bool { return g.enabled[a].Has(id) }

// EnabledSet returns the set of nodes where action a is enabled. The
// returned set is the graph's own precomputed bitset; callers must not
// modify it.
func (g *Graph) EnabledSet(a int) *Bitset { return g.enabled[a] }

// Reach returns the set of nodes reachable from `from` (inclusive) along
// edges whose source and target stay inside `within`; pass nil for within to
// allow all nodes. Only edges from nodes inside within are followed.
// Unrestricted queries (within == nil) are memoized per graph — checkers
// repeat them with the same start set — and the returned set is always the
// caller's to mutate.
func (g *Graph) Reach(from *Bitset, within *Bitset) *Bitset {
	if within == nil && g.memo != nil {
		return g.memoReach(from)
	}
	return g.computeReach(from, within)
}

func (g *Graph) computeReach(from *Bitset, within *Bitset) *Bitset {
	seen := NewBitset(g.n)
	var stack []int
	from.ForEach(func(id int) bool {
		if within == nil || within.Has(id) {
			if !seen.Has(id) {
				seen.Add(id)
				stack = append(stack, id)
			}
		}
		return true
	})
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Out(id) {
			if within != nil && !within.Has(e.To) {
				continue
			}
			if !seen.Has(e.To) {
				seen.Add(e.To)
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// parentPool recycles the BFS parent arrays of PathBetween: counterexample
// extraction is called repeatedly during checks, and the array is sized to
// the whole graph regardless of how small the searched region is.
var parentPool = sync.Pool{New: func() any { return new([]int) }}

// PathBetween returns a state path (BFS, shortest) from any node in `from`
// to any node in `goal`, moving only through `within` (nil = all). It
// reports false when no such path exists. An empty `goal`, or an empty (or
// fully out-of-within) `from`, returns early without allocating — a
// deadlock-free graph's deadlock question needs no search; a goal node
// inside `from` yields a single-state path.
func (g *Graph) PathBetween(from, goal *Bitset, within *Bitset) ([]state.State, bool) {
	if goal.Empty() {
		return nil, false
	}
	var queue []int
	from.ForEach(func(id int) bool {
		if within == nil || within.Has(id) {
			queue = append(queue, id)
		}
		return true
	})
	if len(queue) == 0 {
		return nil, false
	}
	pp := parentPool.Get().(*[]int)
	defer parentPool.Put(pp)
	if cap(*pp) < g.n {
		*pp = make([]int, g.n)
	}
	parent := (*pp)[:g.n]
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	for _, id := range queue {
		parent[id] = -1
	}
	target := -1
	for i := 0; i < len(queue) && target < 0; i++ {
		id := queue[i]
		if goal.Has(id) {
			target = id
			break
		}
		for _, e := range g.Out(id) {
			if within != nil && !within.Has(e.To) {
				continue
			}
			if parent[e.To] == -2 {
				parent[e.To] = id
				queue = append(queue, e.To)
			}
		}
	}
	if target < 0 {
		return nil, false
	}
	var rev []state.State
	for id := target; id != -1; id = parent[id] {
		rev = append(rev, g.State(id))
	}
	// Reverse into forward order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// csrFromLists converts adjacency lists into CSR offset/edge arrays. Tests
// and edge filters use it; Build assembles its CSR directly from the
// engine's flat arenas.
func csrFromLists(out [][]Edge) ([]uint32, []Edge) {
	n := len(out)
	off := make([]uint32, n+1)
	total := 0
	for v := 0; v < n; v++ {
		total += len(out[v])
		off[v+1] = uint32(total)
	}
	edges := make([]Edge, 0, total)
	for v := 0; v < n; v++ {
		edges = append(edges, out[v]...)
	}
	return off, edges
}

// newAdjacencyGraph builds a bare structural graph (no program, schema, or
// states) from explicit adjacency lists; property tests use it to exercise
// the graph algorithms on arbitrary shapes. Every action is enabled
// everywhere and nothing is deadlocked.
func newAdjacencyGraph(out [][]Edge, fair []bool) *Graph {
	g := &Graph{n: len(out), in: new(inCSR), fair: fair, numActs: len(fair), memo: newGraphMemo()}
	g.outOff, g.outEdges = csrFromLists(out)
	g.enabled = make([]*Bitset, g.numActs)
	for a := range g.enabled {
		g.enabled[a] = NewBitset(g.n)
		g.enabled[a].Fill()
	}
	g.dead = NewBitset(g.n)
	return g
}
