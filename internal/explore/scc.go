package explore

import "math"

// SCCs computes the strongly connected components of the subgraph induced by
// `within` (nil = all nodes), using an iterative Tarjan algorithm so deep
// graphs do not overflow the goroutine stack. Components are returned in
// reverse topological order (Tarjan's natural output order).
func (g *Graph) SCCs(within *Bitset) [][]int { return g.tarjan(within, false) }

// cyclicSCCs is SCCs keeping only the components that can carry a cycle:
// those of two or more nodes, and single nodes with a self-loop. The kept
// components stay in Tarjan's order.
func (g *Graph) cyclicSCCs(within *Bitset) [][]int { return g.tarjan(within, true) }

// tarjan runs Tarjan's algorithm with one reused work stack and an int32
// index and low-link per node (node ids fit: 2^31 nodes would take 8 GiB of
// state arena per variable). A node assigned to a component, or outside `within`, gets the
// index `done`, which never lowers a low-link: no on-stack set is needed,
// and no edge tests membership in within. The kept components are laid out
// back to back in one array, each listed in the order Tarjan's stack pops
// it.
func (g *Graph) tarjan(within *Bitset, cyclicOnly bool) [][]int {
	const (
		unvisited = -1
		done      = math.MaxInt32
	)
	type link struct{ index, low int32 }
	nodes := make([]link, g.n)
	for i := range nodes {
		nodes[i].index = unvisited
		if within != nil && !within.Has(i) {
			nodes[i].index = done
		}
	}
	type frame struct{ node, edge int32 }
	var (
		counter int32
		stack   []int32 // Tarjan's stack
		work    []frame // the DFS, reused across roots
		flat    []int   // kept components, back to back
		ends    []int   // end of each kept component in flat
	)
	for root := range nodes {
		if nodes[root].index != unvisited {
			continue
		}
		work = append(work[:0], frame{node: int32(root)})
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.node
			lv := &nodes[v]
			if f.edge == 0 {
				lv.index, lv.low = counter, counter
				counter++
				stack = append(stack, v)
			}
			advanced := false
			out := g.Out(int(v))
			for int(f.edge) < len(out) {
				w := out[f.edge].To
				f.edge++
				if iw := nodes[w].index; iw == unvisited {
					work = append(work, frame{node: int32(w)})
					advanced = true
					break
				} else if iw < lv.low {
					lv.low = iw
				}
			}
			if advanced {
				continue
			}
			// All edges of v processed: pop.
			work = work[:len(work)-1]
			if len(work) > 0 {
				if parent := &nodes[work[len(work)-1].node]; lv.low < parent.low {
					parent.low = lv.low
				}
			}
			if lv.low != lv.index {
				continue
			}
			k := len(stack) - 1
			for stack[k] != v {
				k--
			}
			comp := stack[k:]
			if !cyclicOnly || len(comp) > 1 || g.hasSelfLoop(int(v)) {
				for j := len(comp) - 1; j >= 0; j-- {
					flat = append(flat, int(comp[j]))
				}
				ends = append(ends, len(flat))
			}
			for _, w := range comp {
				nodes[w].index = done
			}
			stack = stack[:k]
		}
	}
	if len(ends) == 0 {
		return nil
	}
	comps := make([][]int, len(ends))
	start := 0
	for i, end := range ends {
		comps[i] = flat[start:end:end]
		start = end
	}
	return comps
}

// hasSelfLoop reports whether node v has an edge to itself.
func (g *Graph) hasSelfLoop(v int) bool {
	for _, e := range g.Out(v) {
		if e.To == v {
			return true
		}
	}
	return false
}
