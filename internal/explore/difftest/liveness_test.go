package difftest

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"sort"
	"testing"

	"detcorr/internal/explore"
	"detcorr/internal/fault"
	"detcorr/internal/gcl"
	"detcorr/internal/state"
)

// livenessDigest is the SHA-256 of dumpLiveness's output, recorded before
// the fair search skipped trivial components and predicates ran linked
// bytecode; neither changed a verdict or a witness.
const livenessDigest = "6d2ec2db2c8b761f5afe68837efe2c76c7cf0476bf0764513d11a05f1b0e3bc0"

// TestLivenessVerdictsPinned dumps liveness verdicts with their witnesses
// and pins the dump's digest. The dump covers every example system with all
// actions fair and with every odd-numbered action unfair, and GCL rings and
// the memory-access program on their own and composed with their faults;
// each is asked CheckEventually and CheckEventuallyAlways from every state
// and from its first state, to goals of several shapes, and SCCs.
func TestLivenessVerdictsPinned(t *testing.T) {
	h := sha256.New()
	dumpLiveness(t, h)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != livenessDigest {
		t.Fatalf("liveness dump digest %s, pinned %s", got, livenessDigest)
	}
}

func dumpLiveness(t *testing.T, w hash.Hash) {
	t.Helper()
	oddUnfair := func(a int) bool { return a%2 == 0 }
	for _, sys := range Systems() {
		g, err := explore.Build(sys.Prog, sys.Init, explore.Options{})
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		dumpGraph(w, sys.Name, g, nil)
		dumpGraph(w, sys.Name+"/odd-unfair", g.RestrictFair(oddUnfair), nil)
	}
	for _, src := range []string{RingSource(3, 3), RingSource(4, 4), RingSource(3, 5), MemaccessPM} {
		f, err := gcl.ParseAndCompile(src)
		if err != nil {
			t.Fatal(err)
		}
		var preds []state.Predicate
		names := make([]string, 0, len(f.Preds))
		for name := range f.Preds {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			preds = append(preds, f.Preds[name])
		}
		g, err := explore.Build(f.Program, state.True, explore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dumpGraph(w, f.Name, g, preds)
		prog, fair, err := fault.Compose(f.Program, f.Faults)
		if err != nil {
			t.Fatal(err)
		}
		gf, err := explore.Build(prog, state.True, explore.Options{Fair: fair})
		if err != nil {
			t.Fatal(err)
		}
		dumpGraph(w, f.Name+"/faults", gf, preds)
	}
}

// dumpGraph writes g's SCCs and its liveness verdicts to the goals: every
// third node, all but every fifth, the lower half, the deadlocks, and each
// predicate's set.
func dumpGraph(w io.Writer, name string, g *explore.Graph, preds []state.Predicate) {
	n := g.NumNodes()
	fmt.Fprintf(w, "%s: %d nodes, %d edges, SCCs %v\n", name, n, g.NumEdges(), g.SCCs(nil))
	shape := func(keep func(id int) bool) *explore.Bitset {
		b := explore.NewBitset(n)
		for id := 0; id < n; id++ {
			if keep(id) {
				b.Add(id)
			}
		}
		return b
	}
	goals := map[string]*explore.Bitset{
		"id%3==0":  shape(func(id int) bool { return id%3 == 0 }),
		"id%5!=0":  shape(func(id int) bool { return id%5 != 0 }),
		"id<n/2":   shape(func(id int) bool { return id < n/2 }),
		"deadlock": g.DeadlockSet().Clone(),
	}
	order := []string{"id%3==0", "id%5!=0", "id<n/2", "deadlock"}
	for _, p := range preds {
		goals[p.Name] = g.SetOf(p)
		order = append(order, p.Name)
	}
	first := explore.NewBitset(n)
	first.Add(0)
	for _, goal := range order {
		for _, from := range []*explore.Bitset{g.All(), first} {
			fmt.Fprintf(w, "%s from %d to %s: eventually %s; eventually-always %s\n", name, from.Count(), goal,
				witness(g.CheckEventually(from, goals[goal])), witness(g.CheckEventuallyAlways(from, goals[goal])))
		}
		fmt.Fprintf(w, "%s fair cycle outside %s: %v\n", name, goal, g.FairCycle(goals[goal].Complement()))
	}
}

// witness renders a verdict with every state of its witness.
func witness(v *explore.LivenessViolation) string {
	if v == nil {
		return "holds"
	}
	return fmt.Sprintf("%v stem %v cycle %v", v, v.Stem, v.Cycle)
}
