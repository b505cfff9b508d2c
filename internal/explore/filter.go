package explore

// Filtered views are shallow Graph copies whose edge, fairness, and memo
// fields are rewritten before the view escapes; this file is a sanctioned
// builder for them.
//
//dc:mutates Graph

// FilterEdges returns a view of the graph with the same node set but keeping
// only the edges for which keep returns true. The filtered graph shares the
// underlying state arena and the precomputed enabledness/deadlock bitsets:
// filtering restricts which transitions may recur, not which actions exist,
// which is what the refinement and detector checks need. Its in-edges are
// its own, built on its first In call.
func (g *Graph) FilterEdges(keep func(from int, e Edge) bool) *Graph {
	ng := *g
	// The view's edge set differs, so none of the parent's memoized
	// artifacts apply to it; give it a fresh memo rather than an alias.
	ng.memo = newGraphMemo()
	off := make([]uint32, g.n+1)
	total := uint32(0)
	for v := 0; v < g.n; v++ {
		for _, e := range g.Out(v) {
			if keep(v, e) {
				total++
			}
		}
		off[v+1] = total
	}
	edges := make([]Edge, 0, total)
	for v := 0; v < g.n; v++ {
		for _, e := range g.Out(v) {
			if keep(v, e) {
				edges = append(edges, e)
			}
		}
	}
	ng.outOff, ng.outEdges = off, edges
	ng.in = new(inCSR)
	return &ng
}

// RestrictFair returns a view of the graph where only the actions accepted
// by keep are treated as fair (subject to weak fairness and counted for
// maximality). Edges are unchanged, so the view shares the in-edge CSR; the
// deadlock set is recomputed from the shared per-action enabledness bitsets,
// since deadlock means "no enabled fair action" and the fair set just
// changed.
func (g *Graph) RestrictFair(keep func(action int) bool) *Graph {
	ng := *g
	// Fairness feeds the deadlock set, fair SCCs, and liveness verdicts;
	// the view needs its own memo.
	ng.memo = newGraphMemo()
	fair := make([]bool, g.numActs)
	for a := range fair {
		fair[a] = g.fair[a] && keep(a)
	}
	ng.fair = fair
	ng.dead = ng.computeDead(fair)
	return &ng
}
