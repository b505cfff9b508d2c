package explore

// Edit-scoped CSR repair: given the graph of a program's previous revision
// and a per-action edit plan, Repair writes the new revision's CSR straight
// from the old one — the edges of unchanged actions are copied run by run,
// and only the actions the edit touched are evaluated — then re-runs
// canonical renumbering only when the node set actually changed. The result
// is structurally identical to a from-scratch Build of the new program — the
// repair difftest (internal/explore/difftest.CheckRepair) holds it to that
// contract across every example system and a scripted edit set.
//
// The soundness argument (DESIGN.md §3j) rests on three facts:
//
//  1. Builds seed from *every* state satisfying init, reachable or not, so
//     when the init predicate's extension is unchanged the new graph's seed
//     set is exactly the old graph's init set — no index-space scan needed.
//  2. A candidate superset of the new node set is: old nodes ∪ states newly
//     reachable through edited actions. Every new-revision edge out of a
//     candidate lands in a candidate (unchanged actions reproduce old
//     edges; edited actions are re-expanded and their targets enqueued), so
//     a forward closure from the seeds inside the candidate set computes
//     the exact new node set. The closure is needed only when some old
//     edge disappeared and some old node is not a seed: otherwise every
//     old node is still reached, and so is every state discovered from one.
//  3. Out-edges are emitted per node in action-index order and, within one
//     action, in kernel enumeration order — the same discipline assemble
//     follows — so after renumbering the arenas match a fresh build's.
//
// This file assembles Graph arenas and is a sanctioned builder.
//
//dc:mutates Graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// ActionDirt classifies one new-revision action against its old counterpart
// for repair purposes. The classification is semantic, not syntactic: the
// planner (internal/flow.PlanRepair) only marks an action Clean when its
// guard and assignments — with every referenced predicate expanded — are
// identical in both revisions.
type ActionDirt uint8

const (
	// ActionClean: guard and assignments unchanged; the old edges are
	// copied verbatim (relabeled to the new action index).
	ActionClean ActionDirt = iota
	// ActionGuardDirty: the guard changed but the assignments did not.
	// Where the action was enabled in both revisions the old targets are
	// reused; newly enabled states re-expand, newly disabled states drop
	// their edges.
	ActionGuardDirty
	// ActionFullDirty: the assignments changed (or the action is new);
	// every enabled state re-expands through the new kernel.
	ActionFullDirty
)

// RepairPlan maps a new program revision onto an old one action by action.
// internal/flow.PlanRepair derives plans from the two GCL ASTs; a plan is a
// promise — Repair trusts its Clean/GuardDirty claims, and a wrong plan
// yields a wrong graph (the repair difftest is the guard against planner
// bugs).
type RepairPlan struct {
	// OldActions is the old revision's action count (removed actions are
	// detected by it, not by OldIndex's image).
	OldActions int
	// OldIndex[j] is the old index of new action j, or -1 for an added
	// action.
	OldIndex []int
	// Dirt[j] classifies new action j against OldIndex[j]. Entries for
	// added actions (OldIndex[j] < 0) are ignored and treated as full.
	Dirt []ActionDirt
}

// Identity reports whether the plan maps every action to itself unchanged —
// a whitespace/comment/reordering-free edit whose graphs can be shared
// outright.
func (p *RepairPlan) Identity() bool {
	if p == nil || p.OldActions != len(p.OldIndex) || len(p.OldIndex) != len(p.Dirt) {
		return false
	}
	for j, oj := range p.OldIndex {
		if oj != j || p.Dirt[j] != ActionClean {
			return false
		}
	}
	return true
}

// ErrRepairRebuild reports that an edit is outside repair's scope (schema
// change, bounded build, no plan) and the caller must fall back to Build.
var ErrRepairRebuild = errors.New("explore: edit outside repair scope; full rebuild required")

// repairableSchema reports whether the new program's schema lays states out
// exactly as the old graph's arena does: same variables, same order, same
// domain sizes. Anything else changes the mixed-radix encoding and repair
// cannot reuse the arenas.
func repairableSchema(old *state.Schema, new *state.Schema) bool {
	if old == nil || new == nil || old.NumVars() != new.NumVars() {
		return false
	}
	for i := 0; i < old.NumVars(); i++ {
		ov, nv := old.Var(i), new.Var(i)
		if ov.Name != nv.Name || ov.Domain.Size != nv.Domain.Size {
			return false
		}
	}
	return true
}

// Repair derives the transition graph of newProg from the graph of the
// previous revision, re-expanding only the actions the plan marks dirty.
// init must have the same extension in both revisions (the planner's
// SamePreds set certifies this); opts follows Build's contract except that
// bounded builds (MaxStates != 0) and the engine-selection fields are out
// of scope — repair is sequential and exact.
//
// The returned graph is freshly assembled (or arena-sharing where the node
// set is unchanged) and carries its own memo; the old graph is not touched.
// ErrRepairRebuild means the edit cannot be repaired and the caller should
// Build from scratch.
func Repair(old *Graph, newProg *guarded.Program, plan *RepairPlan, init state.Predicate, opts Options) (*Graph, error) {
	if old == nil || old.prog == nil || old.schema == nil || plan == nil || newProg == nil {
		return nil, ErrRepairRebuild
	}
	if opts.MaxStates != 0 {
		// The MaxStates contract is exact over reachable states; repair's
		// candidate set over-approximates before the closure, so bounded
		// requests rebuild.
		return nil, ErrRepairRebuild
	}
	if !repairableSchema(old.schema, newProg.Schema()) {
		return nil, ErrRepairRebuild
	}
	newNA := newProg.NumActions()
	if len(plan.OldIndex) != newNA || len(plan.Dirt) != newNA || plan.OldActions != old.numActs {
		return nil, fmt.Errorf("explore: repair plan shape mismatch: %d/%d actions for %d new, %d old",
			len(plan.OldIndex), len(plan.Dirt), newNA, old.numActs)
	}
	for _, oj := range plan.OldIndex {
		if oj >= old.numActs {
			return nil, fmt.Errorf("explore: repair plan maps to old action %d of %d", oj, old.numActs)
		}
	}
	fair := opts.Fair
	if fair == nil {
		fair = make([]bool, newNA)
		for i := range fair {
			fair[i] = true
		}
	} else if len(fair) != newNA {
		return nil, fmt.Errorf("explore: fairness mask has %d entries for %d actions", len(fair), newNA)
	} else {
		fair = append([]bool(nil), fair...)
	}
	k := sharedKernel(newProg)
	if plan.Identity() {
		return old.rebind(k, fair), nil
	}
	return repair(old, k, plan, init, fair), nil
}

// rebind shares every arena of the old graph under the new program: an
// identity edit changes no action semantics, so states, edges, enabledness
// — everything but the program pointer — carry over. The memo starts fresh
// (predicate extensions may have changed even when actions did not), and
// the deadlock set is recomputed when the fairness mask differs.
func (old *Graph) rebind(k *guarded.Kernel, fair []bool) *Graph {
	g := &Graph{
		prog:     k.Program(),
		schema:   k.Schema(),
		nv:       old.nv,
		n:        old.n,
		vals:     old.vals,
		idxs:     old.idxs,
		outOff:   old.outOff,
		outEdges: old.outEdges,
		in:       old.in,
		fair:     fair,
		numActs:  old.numActs,
		enabled:  old.enabled,
		memo:     newGraphMemo(),
	}
	g.dead = g.computeDead(fair)
	return g
}

// repairStep is one step of the per-node edge rewrite: either a run of
// consecutive clean new actions [j0, j1) whose old indices [o0, o0+j1-j0)
// are consecutive too — at every node their old edges form one contiguous
// run of the old list — or a single dirty action j0 with old index o0 (-1
// for an added action).
type repairStep struct {
	dirt   ActionDirt
	j0, j1 int
	o0     int
}

// repairSteps groups the plan's new actions into steps.
func repairSteps(plan *RepairPlan) []repairStep {
	var steps []repairStep
	for j, oj := range plan.OldIndex {
		dirt := ActionFullDirty
		if oj >= 0 {
			dirt = plan.Dirt[j]
		}
		if n := len(steps); dirt == ActionClean && n > 0 {
			last := &steps[n-1]
			if last.dirt == ActionClean && last.o0+last.j1-last.j0 == oj {
				last.j1++
				continue
			}
		}
		steps = append(steps, repairStep{dirt: dirt, j0: j, j1: j + 1, o0: oj})
	}
	return steps
}

// appendRun appends a run of old edges relabeled to new action indices
// (new = old + shift); a run whose actions did not move is one copy.
func appendRun(dst, run []Edge, shift int) []Edge {
	if shift == 0 {
		return append(dst, run...)
	}
	for _, e := range run {
		dst = append(dst, Edge{Action: e.Action + shift, To: e.To})
	}
	return dst
}

// candidates numbers repair's candidate states: old nodes keep their ids,
// and states discovered through edited actions follow at oldN + discovery
// order.
type candidates struct {
	old   *Graph
	whole bool // the old graph holds every state of the schema: id = index
	found map[uint64]int
	fresh []uint64 // discovered states in discovery order; the BFS queue
}

// id resolves a state index to its candidate id, discovering it if needed.
func (c *candidates) id(idx uint64) int {
	if c.whole {
		return int(idx)
	}
	if id, ok := c.old.idOf(idx); ok {
		return id
	}
	q, ok := c.found[idx]
	if !ok {
		q = len(c.fresh)
		c.found[idx] = q
		c.fresh = append(c.fresh, idx)
	}
	return c.old.n + q
}

// repair is the non-identity path: the dirty actions' guards evaluated,
// per-node edge rewrite into candidate ids, frontier BFS over newly
// discovered states, forward closure from the (unchanged) seed set when
// reachability may have shrunk, and assembly — phase 1's arrays are the
// graph when the node set survived intact, and are relabeled into the
// canonical numbering when it did not.
func repair(old *Graph, k *guarded.Kernel, plan *RepairPlan, init state.Predicate, fair []bool) *Graph {
	sc := k.NewScratch()
	nv, oldN, newNA := old.nv, old.n, k.NumActions()
	total, _ := k.Schema().NumStates()
	c := &candidates{old: old, whole: uint64(oldN) == total, found: map[uint64]int{}}
	steps := repairSteps(plan)

	// An old action with no clean or guard-dirty image in the plan (removed,
	// or replaced by a full re-expansion) loses its old edges wholesale;
	// reachability can only shrink when some edge disappears.
	removedAny := false
	imaged := make([]bool, plan.OldActions)
	for j, oj := range plan.OldIndex {
		if oj >= 0 && plan.Dirt[j] != ActionFullDirty {
			imaged[oj] = true
		}
	}
	for a, ok := range imaged {
		if !ok && !old.enabled[a].Empty() {
			removedAny = true
			break
		}
	}

	// Clean actions keep sharing the old enabled bitsets (an unchanged
	// guard over unchanged states); a dirty action's bitset over the old
	// nodes is filled as phase 1a evaluates its guard.
	enabled := make([]*Bitset, newNA)
	var edited []repairStep // the dirty steps, one action each
	var fanout []int        // of each edited action
	for _, st := range steps {
		if st.dirt == ActionClean {
			for j := st.j0; j < st.j1; j++ {
				enabled[j] = old.enabled[st.o0+j-st.j0]
			}
		} else {
			enabled[st.j0] = NewBitset(oldN)
			edited = append(edited, st)
			fanout = append(fanout, k.Fanout(st.j0))
		}
	}

	// Phase 1a: evaluate the dirty actions' guards at every old node into
	// their bitsets, and count the edges phase 1b writes so its arena is
	// allocated once, at its final size: the old edges, less those of old
	// actions without an image and the runs a guard-dirty action's new
	// guard disables, plus a dirty action's fan-out wherever it is enabled
	// and its old edges cannot be reused. (The planner images an old action
	// at most once; a plan that images one twice only makes the arena grow.)
	n := len(old.outEdges)
	if slices.Contains(imaged, false) {
		for _, e := range old.outEdges {
			if !imaged[e.Action] {
				n--
			}
		}
	}
	var buf []guarded.Succ
	for i := 0; i < oldN; i++ {
		row := old.vals[i*nv : (i+1)*nv]
		for x, st := range edited {
			now := sc.EnabledOnRow(row, st.j0)
			before := st.dirt == ActionGuardDirty && old.enabled[st.o0].Has(i)
			switch {
			case now && before:
				// Same assignments, enabled in both revisions: the old
				// targets (and their kernel order) carry over.
			case before:
				removedAny = true
				for _, e := range old.Out(i) {
					if e.Action == st.o0 {
						n--
					}
				}
			case now:
				if fanout[x] >= 0 {
					n += fanout[x]
				} else {
					buf = sc.TransitionsOf(old.idxs[i], st.j0, buf[:0])
					n += len(buf)
				}
			}
			if now {
				enabled[st.j0].Add(i)
			}
		}
	}

	// Phase 1b: write every old node's out-edge list under the new action
	// set, in new-action-index order, with targets as candidate ids: a
	// reused run is copied from the old list (one append when its actions'
	// indices did not move, relabeled when they did), and a dirty action
	// enabled where its old edges cannot be reused is expanded.
	edges := make([]Edge, 0, n)
	offs := make([]uint32, oldN+1)
	pos := make([]int, old.numActs+1) // pos[a]: first edge of the node with action >= a
	for i := 0; i < oldN; i++ {
		oldOut := old.Out(i)
		p := 0
		for a := range pos {
			for p < len(oldOut) && oldOut[p].Action < a {
				p++
			}
			pos[a] = p
		}
		for _, st := range steps {
			switch {
			case st.dirt == ActionClean:
				edges = appendRun(edges, oldOut[pos[st.o0]:pos[st.o0+st.j1-st.j0]], st.j0-st.o0)
			case st.dirt == ActionGuardDirty && old.enabled[st.o0].Has(i) && enabled[st.j0].Has(i):
				edges = appendRun(edges, oldOut[pos[st.o0]:pos[st.o0+1]], st.j0-st.o0)
			case enabled[st.j0].Has(i):
				buf = sc.TransitionsOf(old.idxs[i], st.j0, buf[:0])
				for _, t := range buf {
					edges = append(edges, Edge{Action: st.j0, To: c.id(t.To)})
				}
			}
		}
		offs[i+1] = uint32(len(edges))
	}

	// Phase 2: frontier BFS over the newly discovered states with the full
	// new kernel — these states have no old edges to reuse. c.fresh is the
	// queue; resolving a target appends to it.
	var freshEdges []Edge
	freshOffs := []uint32{0}
	for q := 0; q < len(c.fresh); q++ {
		buf = sc.Transitions(c.fresh[q], buf[:0])
		for _, t := range buf {
			freshEdges = append(freshEdges, Edge{Action: int(t.Action), To: c.id(t.To)})
		}
		freshOffs = append(freshOffs, uint32(len(freshEdges)))
	}
	edgesOf := func(id int) []Edge {
		if id < oldN {
			return edges[offs[id]:offs[id+1]]
		}
		q := id - oldN
		return freshEdges[freshOffs[q]:freshOffs[q+1]]
	}

	// Phase 3: forward closure from the seeds. The init extension is
	// unchanged by contract and old graphs contain every init state, so
	// the seed set is exactly the old graph's init set — evaluated through
	// the old graph's (possibly memoized) SetOf, never by scanning the
	// index space. When no edge was removed, or every old node is a seed
	// (always so for a graph from true), every candidate stays reachable
	// and alive stays nil.
	var alive *Bitset
	aliveCount := oldN + len(c.fresh)
	if removedAny {
		if seeds := old.SetOf(init); seeds.Count() < oldN {
			alive = NewBitset(oldN + len(c.fresh))
			var stack []int
			seeds.ForEach(func(id int) bool {
				alive.Add(id)
				stack = append(stack, id)
				return true
			})
			aliveCount = len(stack)
			for len(stack) > 0 {
				id := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, e := range edgesOf(id) {
					if !alive.Has(e.To) {
						alive.Add(e.To)
						aliveCount++
						stack = append(stack, e.To)
					}
				}
			}
		}
	}

	if aliveCount == oldN && len(c.fresh) == 0 {
		// The node set is the old one: phase 1's arrays are the graph.
		g := &Graph{
			prog:     k.Program(),
			schema:   k.Schema(),
			nv:       nv,
			n:        oldN,
			vals:     old.vals,
			idxs:     old.idxs,
			outOff:   offs,
			outEdges: edges,
			in:       new(inCSR),
			fair:     fair,
			numActs:  newNA,
			enabled:  enabled,
			memo:     newGraphMemo(),
		}
		g.dead = g.computeDead(fair)
		return g
	}
	return repairRenumber(old, k, fair, c, edgesOf, enabled, alive, aliveCount)
}

// repairRenumber assembles the repaired graph when the node set changed:
// surviving old nodes and surviving discovered states merge into a fresh
// canonical (index-ascending) numbering, old arena rows are copied, new
// states are decoded once, edges and the old nodes' enabledness are
// relabeled through the final-id map, and only the discovered states'
// guards are evaluated — exactly what a from-scratch assemble would
// produce. alive == nil means every candidate survived.
func repairRenumber(old *Graph, k *guarded.Kernel, fair []bool, c *candidates, edgesOf func(int) []Edge, enabled []*Bitset, alive *Bitset, n int) *Graph {
	sch := k.Schema()
	nv, oldN, newNA := old.nv, old.n, k.NumActions()
	live := func(id int) bool { return alive == nil || alive.Has(id) }

	// Merge surviving old nodes (already index-ascending) with surviving
	// discovered states (sorted here) into the canonical id order.
	fresh := make([]int, 0, len(c.fresh)) // candidate ids
	for q := range c.fresh {
		if live(oldN + q) {
			fresh = append(fresh, oldN+q)
		}
	}
	sort.Slice(fresh, func(a, b int) bool { return c.fresh[fresh[a]-oldN] < c.fresh[fresh[b]-oldN] })
	order := make([]int, 0, n) // final id -> candidate id
	for oi, ni := 0, 0; oi < oldN || ni < len(fresh); {
		switch {
		case oi < oldN && !live(oi):
			oi++
		case oi < oldN && (ni == len(fresh) || old.idxs[oi] < c.fresh[fresh[ni]-oldN]):
			order = append(order, oi)
			oi++
		default:
			order = append(order, fresh[ni])
			ni++
		}
	}
	final := make([]int32, oldN+len(c.fresh)) // candidate id -> final id, for survivors
	totalE := 0
	for f, cid := range order {
		final[cid] = int32(f)
		totalE += len(edgesOf(cid))
	}

	g := &Graph{
		prog:     k.Program(),
		schema:   sch,
		nv:       nv,
		n:        n,
		vals:     make([]int32, n*nv),
		idxs:     make([]uint64, n),
		outOff:   make([]uint32, n+1),
		outEdges: make([]Edge, 0, totalE),
		in:       new(inCSR),
		fair:     fair,
		numActs:  newNA,
		enabled:  make([]*Bitset, newNA),
		memo:     newGraphMemo(),
	}
	for f, cid := range order {
		if cid < oldN {
			g.idxs[f] = old.idxs[cid]
			copy(g.vals[f*nv:(f+1)*nv], old.vals[cid*nv:(cid+1)*nv])
		} else {
			g.idxs[f] = c.fresh[cid-oldN]
			sch.DecodeInto(g.vals[f*nv:(f+1)*nv], g.idxs[f])
		}
		for _, e := range edgesOf(cid) {
			g.outEdges = append(g.outEdges, Edge{Action: e.Action, To: int(final[e.To])})
		}
		g.outOff[f+1] = uint32(len(g.outEdges))
	}
	for a, en := range enabled {
		b := NewBitset(n)
		en.ForEach(func(id int) bool {
			if live(id) {
				b.Add(int(final[id]))
			}
			return true
		})
		g.enabled[a] = b
	}
	// Discovered states have no recorded enabledness: evaluate their guards.
	sc := k.NewScratch()
	for _, cid := range fresh {
		f := int(final[cid])
		row := g.vals[f*nv : (f+1)*nv]
		for a := 0; a < newNA; a++ {
			if sc.EnabledOnRow(row, a) {
				g.enabled[a].Add(f)
			}
		}
	}
	g.dead = g.computeDead(fair)
	return g
}
