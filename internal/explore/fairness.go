package explore

import (
	"fmt"
	"strings"

	"detcorr/internal/state"
)

// ViolationKind classifies how a liveness obligation fails.
type ViolationKind int

const (
	// ViolationDeadlock: a maximal finite computation ends outside the goal.
	ViolationDeadlock ViolationKind = iota + 1
	// ViolationLivelock: a weakly fair infinite computation avoids the goal
	// forever.
	ViolationLivelock
)

// String renders the violation kind.
func (k ViolationKind) String() string {
	switch k {
	case ViolationDeadlock:
		return "deadlock"
	case ViolationLivelock:
		return "livelock"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// LivenessViolation is a counterexample to "every fair maximal computation
// from the start set reaches the goal": a finite stem from a start state,
// followed (for livelocks) by a cycle that a fair computation can repeat
// forever.
type LivenessViolation struct {
	Kind  ViolationKind
	Stem  []state.State
	Cycle []state.State
}

// Error implements the error interface.
func (v *LivenessViolation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "liveness violated (%s)", v.Kind)
	if len(v.Stem) > 0 {
		fmt.Fprintf(&b, "; stem of %d states from %s to %s", len(v.Stem), v.Stem[0], v.Stem[len(v.Stem)-1])
	}
	if len(v.Cycle) > 0 {
		fmt.Fprintf(&b, "; fair cycle of %d states at %s", len(v.Cycle), v.Cycle[0])
	}
	return b.String()
}

// FairCycle looks for a weakly fair infinite computation confined to the
// node set `within`, using only fair-action edges for the recurring part
// (unfair actions — faults — occur finitely often and cannot sustain a
// cycle). It returns one SCC admitting such a computation, or nil.
//
// An SCC C admits a fair run iff it has an internal fair edge and, for every
// fair action a that is enabled at all states of C, some a-transition stays
// inside C. (If such an a had no internal transition, any run confined to C
// would keep a continuously enabled yet never execute it; conversely a tour
// of all states and internal fair edges of C is weakly fair.)
//
// One membership set serves every component: each is added, tested and
// removed again, so the cost is linear in the components' sizes rather than
// a fresh n-bit set per SCC.
func (g *Graph) FairCycle(within *Bitset) []int {
	member := NewBitset(g.n)
	for _, comp := range g.fairSCCs(within) {
		for _, v := range comp {
			member.Add(v)
		}
		admits := g.hasInternalFairEdge(member, comp) && g.sccAdmitsFairRun(member, comp)
		for _, v := range comp {
			member.Remove(v)
		}
		if admits {
			return comp
		}
	}
	return nil
}

// fairSCCs computes SCCs of the subgraph with only fair-action edges,
// running Tarjan over a filtered CSR view (no in-lists needed). The view is
// built once per graph and the decompositions are memoized by `within`.
func (g *Graph) fairSCCs(within *Bitset) [][]int {
	if g.memo != nil {
		return g.memoFairSCCs(within)
	}
	return g.fairEdgeView().SCCs(within)
}

func (g *Graph) hasInternalFairEdge(member *Bitset, comp []int) bool {
	for _, v := range comp {
		for _, e := range g.Out(v) {
			if g.fair[e.Action] && member.Has(e.To) {
				return true
			}
		}
	}
	return false
}

func (g *Graph) sccAdmitsFairRun(member *Bitset, comp []int) bool {
	for a := 0; a < g.numActs; a++ {
		if !g.fair[a] {
			continue
		}
		enabledEverywhere := true
		hasInternal := false
		for _, v := range comp {
			if !g.Enabled(v, a) {
				enabledEverywhere = false
				break
			}
		}
		if !enabledEverywhere {
			continue
		}
		for _, v := range comp {
			for _, e := range g.Out(v) {
				if e.Action == a && member.Has(e.To) {
					hasInternal = true
					break
				}
			}
			if hasInternal {
				break
			}
		}
		if !hasInternal {
			return false
		}
	}
	return true
}

// CheckEventually verifies that every fair maximal computation starting in
// `from` reaches `goal`. It returns nil on success, or a counterexample.
//
// A violating computation never visits goal, so it stays in the subgraph of
// non-goal nodes: the check looks for a reachable deadlock there, or a fair
// cycle there (reachable via any edges, recurring via fair edges only —
// unfair fault actions occur finitely often, Assumption 2).
func (g *Graph) CheckEventually(from, goal *Bitset) *LivenessViolation {
	if g.memo != nil {
		return g.memoCheckEventually(from, goal)
	}
	return g.computeCheckEventually(from, goal)
}

func (g *Graph) computeCheckEventually(from, goal *Bitset) *LivenessViolation {
	avoid := goal
	start := from.Clone()
	start.Subtract(avoid)
	if start.Empty() {
		return nil
	}
	nonGoal := avoid.Complement()
	reach := g.Reach(start, nonGoal)
	// Deadlocks outside the goal: one word-level intersection with the
	// precomputed deadlock set.
	dead := reach.Clone()
	dead.Intersect(g.dead)
	if !dead.Empty() {
		stem, _ := g.PathBetween(start, dead, nonGoal)
		return &LivenessViolation{Kind: ViolationDeadlock, Stem: stem}
	}
	// Fair cycles outside the goal.
	if comp := g.FairCycle(reach); comp != nil {
		member := NewBitset(g.n)
		for _, v := range comp {
			member.Add(v)
		}
		stem, _ := g.PathBetween(start, member, nonGoal)
		cycle := make([]state.State, 0, len(comp))
		for _, v := range comp {
			cycle = append(cycle, g.State(v))
		}
		return &LivenessViolation{Kind: ViolationLivelock, Stem: stem, Cycle: cycle}
	}
	return nil
}

// CheckEventuallyAlways verifies that every fair maximal computation from
// `from` reaches the goal *and remains in it*: the computation has a suffix
// entirely inside goal (and finite computations end inside goal). This is
// the shape of the paper's Convergence condition when the goal set is closed
// along the computation.
//
// It is checked as: every computation reaches the largest subset of goal
// that is closed under all edges (the "sink" of goal); a computation that
// only grazes a non-closed part of goal can leave it again.
func (g *Graph) CheckEventuallyAlways(from, goal *Bitset) *LivenessViolation {
	sink := g.LargestClosedSubset(goal)
	return g.CheckEventually(from, sink)
}

// LargestClosedSubset returns the largest subset C of `set` such that every
// edge from a node of C stays in C (greatest fixpoint: repeatedly remove
// nodes with an escaping edge).
func (g *Graph) LargestClosedSubset(set *Bitset) *Bitset {
	c := set.Clone()
	var queue []int
	c.ForEach(func(id int) bool {
		for _, e := range g.Out(id) {
			if !c.Has(e.To) {
				queue = append(queue, id)
				break
			}
		}
		return true
	})
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !c.Has(id) {
			continue
		}
		c.Remove(id)
		// Predecessors of id inside c may now escape.
		for _, e := range g.In(id) {
			if c.Has(e.To) {
				queue = append(queue, e.To)
			}
		}
	}
	return c
}
