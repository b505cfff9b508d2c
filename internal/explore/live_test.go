package explore

import (
	"math/rand"
	"testing"

	"detcorr/internal/state"
)

// liveGraph is newAdjacencyGraph with the enabledness a built graph has —
// an action is enabled where it has an edge, and a node with no enabled
// fair action is a deadlock — and node i as the state s=i, so that
// CheckEventually can render its witnesses.
func liveGraph(out [][]Edge, fair []bool) *Graph {
	g := newAdjacencyGraph(out, fair)
	g.schema = state.MustSchema(state.IntVar("s", g.n))
	g.nv = 1
	g.vals = make([]int32, g.n)
	g.idxs = make([]uint64, g.n)
	for i := range g.vals {
		g.vals[i], g.idxs[i] = int32(i), uint64(i)
	}
	for a := range g.enabled {
		g.enabled[a] = NewBitset(g.n)
	}
	for v, es := range out {
		for _, e := range es {
			g.enabled[e.Action].Add(v)
		}
	}
	g.dead = g.computeDead(fair)
	return g
}

// liveSubsetByLoop is the per-state fixpoint LargestLiveSubset replaces:
// close the set, remove one state from which some fair maximal computation
// avoids the target, and repeat until none is left.
func liveSubsetByLoop(g *Graph, safe, target *Bitset) *Bitset {
	region := g.LargestClosedSubset(safe)
	for {
		goal := target.Clone()
		goal.Intersect(region)
		violating := -1
		region.ForEach(func(id int) bool {
			single := NewBitset(g.n)
			single.Add(id)
			if g.CheckEventually(single, goal) != nil {
				violating = id
				return false
			}
			return true
		})
		if violating < 0 {
			return region
		}
		region.Remove(violating)
		region = g.LargestClosedSubset(region)
	}
}

// TestLargestLiveSubsetMatchesPerStateLoop holds the one-pass live subset to
// the per-state loop on random graphs of three actions, one always fair and
// two fair at random, with self-loops, deadlocks, and random safe and target
// sets. It counts the graphs where liveness, not closure, shrank the set, so
// that the agreement is not won on trivial inputs.
func TestLargestLiveSubsetMatchesPerStateLoop(t *testing.T) {
	shrunk := 0
	for seed := int64(0); seed < 10000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		edgeProb := rng.Float64() * 0.4
		out := make([][]Edge, n)
		for v := 0; v < n; v++ {
			for w := 0; w < n; w++ {
				for a := 0; a < 3; a++ {
					if rng.Float64() < edgeProb/3 {
						out[v] = append(out[v], Edge{Action: a, To: w})
					}
				}
			}
		}
		g := liveGraph(out, []bool{true, rng.Intn(2) == 0, rng.Intn(3) == 0})
		safe, _ := randBitset(rng, n)
		if rng.Intn(2) == 0 {
			safe.Fill()
		}
		target, _ := randBitset(rng, n)
		got := g.LargestLiveSubset(safe, target)
		want := liveSubsetByLoop(g, safe, target)
		if !bitsetEqual(got, want) {
			t.Fatalf("seed %d: LargestLiveSubset %v, per-state loop %v (safe %v, target %v)",
				seed, got.Slice(), want.Slice(), safe.Slice(), target.Slice())
		}
		if closed := g.LargestClosedSubset(safe); !want.Empty() && want.Count() < closed.Count() {
			shrunk++
		}
	}
	if shrunk < 2000 {
		t.Fatalf("liveness shrank a nonempty result in only %d graphs", shrunk)
	}
}

// TestLargestLiveSubsetHandBuilt covers what random graphs rarely build:
// each case would flip if one part of the pass were dropped — the test a
// weakly fair action imposes on a cycle, the fair-edge restriction of the
// cycles, the deadlocks, and the closure that removes every state leading
// to a stuck one. Action 0 and 2 are fair, action 1 is not.
func TestLargestLiveSubsetHandBuilt(t *testing.T) {
	fair := []bool{true, false, true}
	e := func(a, to int) Edge { return Edge{Action: a, To: to} }
	cases := []struct {
		name   string
		out    [][]Edge
		target []int
		want   []int
	}{
		{
			// 0 ⇄ 1 under action 0, but action 2 is enabled at both and
			// leaves for the target: weak fairness forces it.
			name:   "fair action forced out of a cycle",
			out:    [][]Edge{{e(0, 1), e(2, 2)}, {e(0, 0), e(2, 2)}, {e(0, 2)}},
			target: []int{2},
			want:   []int{0, 1, 2},
		},
		{
			// 0 ⇄ 1 is a fair cycle outside the target; target state 2 and
			// non-target 5 lead into it, target 3 and its predecessor 4
			// do not.
			name:   "admitting cycle and everything leading to it",
			out:    [][]Edge{{e(0, 1)}, {e(0, 0)}, {e(0, 0)}, {e(0, 3)}, {e(0, 3)}, {e(0, 2)}},
			target: []int{2, 3},
			want:   []int{3, 4},
		},
		{
			// 0 ⇄ 1 under the unfair action only; each state has a fair
			// action of its own into the target, enabled at one state of
			// the cycle, so no fair action is enabled throughout it.
			name:   "cycle of unfair edges",
			out:    [][]Edge{{e(1, 1), e(0, 2)}, {e(1, 0), e(2, 2)}, {e(0, 2)}},
			target: []int{2},
			want:   []int{0, 1, 2},
		},
		{
			// 1 has no edge and 4 only an unfair one: both deadlock
			// outside the target, and 0 leads to 1. Deadlock 3 is in the
			// target.
			name:   "deadlock outside the target",
			out:    [][]Edge{{e(0, 1)}, nil, {e(0, 2)}, nil, {e(1, 2)}},
			target: []int{2, 3},
			want:   []int{2, 3},
		},
	}
	for _, tc := range cases {
		g := liveGraph(tc.out, fair)
		safe := NewBitset(g.n)
		safe.Fill()
		target := NewBitset(g.n)
		for _, v := range tc.target {
			target.Add(v)
		}
		want := NewBitset(g.n)
		for _, v := range tc.want {
			want.Add(v)
		}
		if got := g.LargestLiveSubset(safe, target); !bitsetEqual(got, want) {
			t.Errorf("%s: LargestLiveSubset %v, want %v", tc.name, got.Slice(), tc.want)
		}
		if loop := liveSubsetByLoop(g, safe, target); !bitsetEqual(loop, want) {
			t.Errorf("%s: per-state loop %v, want %v", tc.name, loop.Slice(), tc.want)
		}
	}
}
