package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"detcorr/internal/core"
	"detcorr/internal/crosscheck"
	"detcorr/internal/explore"
	"detcorr/internal/explore/difftest"
	"detcorr/internal/fault"
	"detcorr/internal/gcl"
	"detcorr/internal/state"
)

// detectorRegionByLoop is Detector.GoodRegion as the per-candidate fixpoint
// it was before explore.Graph.LargestLiveSubset: keep the Safeness states
// less the sources of Stability-violating steps, close, then remove one
// X ∧ ¬Z state from which some fair maximal computation avoids Z ∨ ¬X,
// re-close, and repeat. It also returns how many states the loop removed.
func detectorRegionByLoop(d core.Detector, g *explore.Graph) (*explore.Bitset, int) {
	zSet := g.SetOf(d.Z)
	xSet := g.SetOf(d.X)
	safe := zSet.Clone()
	safe.Subtract(xSet)
	safe = safe.Complement()
	badTarget := xSet.Clone()
	badTarget.Subtract(zSet)
	stabSrc := zSet.Clone()
	stabSrc.Intersect(safe)
	stabSrc.ForEach(func(id int) bool {
		for _, e := range g.Out(id) {
			if badTarget.Has(e.To) {
				safe.Remove(id)
				break
			}
		}
		return true
	})
	region := g.LargestClosedSubset(safe)
	for removed := 0; ; removed++ {
		goal := xSet.Complement()
		goal.Union(zSet)
		goal.Intersect(region)
		violating := -1
		cand := xSet.Clone()
		cand.Subtract(zSet)
		cand.Intersect(region)
		cand.ForEach(func(id int) bool {
			single := explore.NewBitset(g.NumNodes())
			single.Add(id)
			if v := g.CheckEventually(single, goal); v != nil {
				violating = id
				return false
			}
			return true
		})
		if violating < 0 {
			return region, removed
		}
		region.Remove(violating)
		region = g.LargestClosedSubset(region)
	}
}

// correctorRegionByLoop is Corrector.GoodRegion in the same form: the
// detector region less the sources of X-falsifying steps, closed, then one
// state at a time removed from which some fair maximal computation avoids X.
func correctorRegionByLoop(c core.Corrector, g *explore.Graph) (*explore.Bitset, int) {
	region, removed := detectorRegionByLoop(core.Detector{D: c.C, Z: c.Z, X: c.X, U: c.U}, g)
	xSet := g.SetOf(c.X)
	xRegion := xSet.Clone()
	xRegion.Intersect(region)
	xRegion.ForEach(func(id int) bool {
		for _, e := range g.Out(id) {
			if !xSet.Has(e.To) {
				region.Remove(id)
				break
			}
		}
		return true
	})
	region = g.LargestClosedSubset(region)
	for ; ; removed++ {
		goal := xSet.Clone()
		goal.Intersect(region)
		violating := -1
		region.ForEach(func(id int) bool {
			single := explore.NewBitset(g.NumNodes())
			single.Add(id)
			if v := g.CheckEventually(single, goal); v != nil {
				violating = id
				return false
			}
			return true
		})
		if violating < 0 {
			return region, removed
		}
		region.Remove(violating)
		region = g.LargestClosedSubset(region)
	}
}

// compareRegions checks both good regions of Z and X on g against the
// loops, and returns how many of the two were shrunk by liveness to a
// nonempty region.
func compareRegions(t *testing.T, name string, g *explore.Graph, z, x state.Predicate) int {
	t.Helper()
	d := core.Detector{D: g.Program(), Z: z, X: x, U: state.True}
	c := core.Corrector{C: g.Program(), Z: z, X: x, U: state.True}
	shrunk := 0
	want, removed := detectorRegionByLoop(d, g)
	if got := d.GoodRegion(g); fmt.Sprint(got.Slice()) != fmt.Sprint(want.Slice()) {
		t.Errorf("%s: detector region %v, loop %v", name, got.Slice(), want.Slice())
	}
	if removed > 0 && !want.Empty() {
		shrunk++
	}
	want, removed = correctorRegionByLoop(c, g)
	if got := c.GoodRegion(g); fmt.Sprint(got.Slice()) != fmt.Sprint(want.Slice()) {
		t.Errorf("%s: corrector region %v, loop %v", name, got.Slice(), want.Slice())
	}
	if removed > 0 && !want.Empty() {
		shrunk++
	}
	return shrunk
}

// randomPreds returns extensional predicates Z and X over g's nodes, X
// holding at about three nodes in four and Z at a random share, inside X
// for even i.
func randomPreds(rng *rand.Rand, g *explore.Graph, i int) (z, x state.Predicate) {
	zSet := explore.NewBitset(g.NumNodes())
	xSet := explore.NewBitset(g.NumNodes())
	zShare := rng.Float64()
	for id := 0; id < g.NumNodes(); id++ {
		if rng.Float64() < 0.75 {
			xSet.Add(id)
		}
		if rng.Float64() < zShare && (i%2 == 1 || xSet.Has(id)) {
			zSet.Add(id)
		}
	}
	return core.ExtensionalPredicate(fmt.Sprintf("Z%d", i), g, zSet),
		core.ExtensionalPredicate(fmt.Sprintf("X%d", i), g, xSet)
}

// TestGoodRegionsMatchPerStateLoops holds Detector.GoodRegion and
// Corrector.GoodRegion to the per-candidate loops they replace: on the
// example systems (all actions fair, and odd-numbered actions unfair) with
// random Z and X, on GCL rings of 3 to 5 machines from the span of Legit,
// and on generated programs with random Z ≠ X and random fairness masks.
// The loops are quadratic: on byzagree's two spaces of 23,328 states they
// ran for over a minute without finishing, so those two are left out. The
// cases where liveness shrank a region are counted, so that the agreement
// is not won on trivial inputs.
func TestGoodRegionsMatchPerStateLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	oddUnfair := func(a int) bool { return a%2 == 0 }
	shrunk := 0
	for _, sys := range difftest.Systems() {
		g, err := explore.Build(sys.Prog, sys.Init, explore.Options{})
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		if g.NumNodes() > 2000 {
			continue
		}
		for _, view := range []*explore.Graph{g, g.RestrictFair(oddUnfair)} {
			for i := 0; i < 4; i++ {
				z, x := randomPreds(rng, view, i)
				shrunk += compareRegions(t, fmt.Sprintf("%s/%d", sys.Name, i), view, z, x)
			}
		}
	}
	if shrunk < 40 {
		t.Errorf("liveness shrank a nonempty region of the example systems in only %d cases", shrunk)
	}
	for n := 3; n <= 5; n++ {
		f, err := gcl.ParseAndCompile(difftest.RingSource(n, n))
		if err != nil {
			t.Fatal(err)
		}
		legit := f.Preds["Legit"]
		span, err := fault.ComputeSpan(f.Program, f.Faults, legit)
		if err != nil {
			t.Fatal(err)
		}
		g, err := explore.Build(f.Program, span.Predicate, explore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		compareRegions(t, fmt.Sprintf("ring%d", n), g, legit, legit)
		if n < 5 {
			z, x := randomPreds(rng, g, n)
			compareRegions(t, fmt.Sprintf("ring%d/random", n), g, z, x)
		}
	}
	shrunk = 0
	for seed := int64(0); seed < 300; seed++ {
		p, err := crosscheck.Generate(seed, crosscheck.GenConfig{Vars: 4, Actions: 4})
		if err != nil {
			t.Fatal(err)
		}
		g, err := explore.Build(p, state.True, explore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mask := rng.Intn(16)
		view := g.RestrictFair(func(a int) bool { return mask&(1<<a) == 0 })
		z, x := randomPreds(rng, view, int(seed))
		shrunk += compareRegions(t, fmt.Sprintf("generated/%d", seed), view, z, x)
	}
	if shrunk < 200 {
		t.Errorf("liveness shrank a nonempty region of the generated programs in only %d cases", shrunk)
	}
}
