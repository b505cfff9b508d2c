package explore

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// identityPlan maps n actions onto themselves clean.
func identityPlan(n int) *RepairPlan {
	p := &RepairPlan{OldActions: n, OldIndex: make([]int, n), Dirt: make([]ActionDirt, n)}
	for i := range p.OldIndex {
		p.OldIndex[i] = i
	}
	return p
}

func TestRepairPlanIdentity(t *testing.T) {
	if (*RepairPlan)(nil).Identity() {
		t.Error("nil plan must not be identity")
	}
	if !identityPlan(3).Identity() {
		t.Error("self-mapping clean plan must be identity")
	}
	p := identityPlan(3)
	p.Dirt[1] = ActionGuardDirty
	if p.Identity() {
		t.Error("a dirty action must break identity")
	}
	q := identityPlan(3)
	q.OldIndex[2] = 1
	if q.Identity() {
		t.Error("a reordered action must break identity")
	}
	r := identityPlan(3)
	r.OldActions = 4
	if r.Identity() {
		t.Error("a dropped old action must break identity")
	}
}

func TestRepairRebuildSentinel(t *testing.T) {
	p := counter(t, 4, inc(4))
	g, err := Build(p, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := identityPlan(1)
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"nil old", func() error { _, err := Repair(nil, p, plan, state.True, Options{}); return err }},
		{"nil prog", func() error { _, err := Repair(g, nil, plan, state.True, Options{}); return err }},
		{"nil plan", func() error { _, err := Repair(g, p, nil, state.True, Options{}); return err }},
		{"bounded", func() error { _, err := Repair(g, p, plan, state.True, Options{MaxStates: 10}); return err }},
		{"schema mismatch", func() error {
			q := counter(t, 5, inc(5))
			_, err := Repair(g, q, plan, state.True, Options{})
			return err
		}},
	} {
		if err := tc.call(); !errors.Is(err, ErrRepairRebuild) {
			t.Errorf("%s: err = %v, want ErrRepairRebuild", tc.name, err)
		}
	}
	// A malformed plan is a caller bug, not a rebuild request.
	bad := identityPlan(1)
	bad.OldIndex[0] = 7
	if _, err := Repair(g, p, bad, state.True, Options{}); err == nil || errors.Is(err, ErrRepairRebuild) {
		t.Errorf("out-of-range plan: err = %v, want a non-sentinel error", err)
	}
}

func TestRepairIdentitySharesArenas(t *testing.T) {
	p := counter(t, 6, inc(6))
	g, err := Build(p, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := counter(t, 6, inc(6))
	rep, err := Repair(g, q, identityPlan(1), state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Program() != q {
		t.Error("repaired graph must answer for the new program")
	}
	if &rep.vals[0] != &g.vals[0] || &rep.idxs[0] != &g.idxs[0] {
		t.Error("identity repair must share the old node arenas")
	}
	if &rep.outEdges[0] != &g.outEdges[0] {
		t.Error("identity repair must share the old edge arena")
	}
}

func TestMigrateProgramRebindsAndRepairs(t *testing.T) {
	ResetCache()
	p := counter(t, 6, inc(6))
	ge2 := state.Pred("ge2", func(s state.State) bool { return s.Get(0) >= 2 })
	if _, err := Shared(p, state.True, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Shared(p, ge2, Options{}); err != nil {
		t.Fatal(err)
	}

	resolve := func(name string) (state.Predicate, bool) {
		switch name {
		case state.True.String():
			return state.True, true
		case "ge2":
			return ge2, true
		}
		return state.Predicate{}, false
	}

	// Identity edit: both graphs rebind, no builds.
	q := counter(t, 6, inc(6))
	before := CacheStats()
	st := MigrateProgram(p, q, identityPlan(1), resolve)
	if st.Rebound != 2 || st.Repaired != 0 || st.Dropped != 0 {
		t.Fatalf("identity migrate stats = %+v, want 2 rebound", st)
	}
	for _, init := range []state.Predicate{state.True, ge2} {
		if _, err := Shared(q, init, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if d := CacheStats().Builds - before.Builds; d != 0 {
		t.Errorf("builds after identity migrate = %d, want 0 (both keys rebound)", d)
	}

	// Dirty edit: both graphs go through Repair.
	r := counter(t, 6, inc(6))
	dirty := identityPlan(1)
	dirty.Dirt[0] = ActionGuardDirty
	before = CacheStats()
	st = MigrateProgram(q, r, dirty, resolve)
	if st.Rebound != 0 || st.Repaired != 2 || st.Dropped != 0 {
		t.Fatalf("dirty migrate stats = %+v, want 2 repaired", st)
	}
	if _, err := Shared(r, state.True, Options{}); err != nil {
		t.Fatal(err)
	}
	if d := CacheStats().Builds - before.Builds; d != 0 {
		t.Errorf("builds after repair migrate = %d, want 0", d)
	}

	// No plan: everything is dropped and rebuilt on demand.
	s := counter(t, 6, inc(6))
	st = MigrateProgram(r, s, nil, resolve)
	if st.Dropped != 2 || st.Rebound != 0 || st.Repaired != 0 {
		t.Fatalf("nil-plan migrate stats = %+v, want 2 dropped", st)
	}
	before = CacheStats()
	if _, err := Shared(s, state.True, Options{}); err != nil {
		t.Fatal(err)
	}
	if d := CacheStats().Builds - before.Builds; d != 1 {
		t.Errorf("builds after dropped migrate = %d, want 1 (rebuild)", d)
	}
}

func TestMigrateProgramDropsUnresolvedInit(t *testing.T) {
	ResetCache()
	p := counter(t, 6, inc(6))
	ge2 := state.Pred("ge2", func(s state.State) bool { return s.Get(0) >= 2 })
	if _, err := Shared(p, ge2, Options{}); err != nil {
		t.Fatal(err)
	}
	q := counter(t, 6, inc(6))
	dirty := identityPlan(1)
	dirty.Dirt[0] = ActionGuardDirty
	none := func(string) (state.Predicate, bool) { return state.Predicate{}, false }
	st := MigrateProgram(p, q, dirty, none)
	if st.Dropped != 1 || st.Repaired != 0 {
		t.Fatalf("unresolved-init migrate stats = %+v, want 1 dropped", st)
	}
}

func TestMigrateProgramRepairedGraphIsCorrect(t *testing.T) {
	ResetCache()
	// Old program counts to 4; the new one counts to 5 over the same
	// 0..5 schema — a genuine guard widening, repaired in cache.
	sch, err := state.NewSchema(state.IntVar("x", 6))
	if err != nil {
		t.Fatal(err)
	}
	p := guarded.MustProgram("counter", sch, inc(5))
	q := guarded.MustProgram("counter", sch, inc(6))
	if _, err := Shared(p, state.True, Options{}); err != nil {
		t.Fatal(err)
	}
	dirty := identityPlan(1)
	dirty.Dirt[0] = ActionGuardDirty
	resolve := func(name string) (state.Predicate, bool) {
		if name == state.True.String() {
			return state.True, true
		}
		return state.Predicate{}, false
	}
	st := MigrateProgram(p, q, dirty, resolve)
	if st.Repaired != 1 {
		t.Fatalf("migrate stats = %+v, want 1 repaired", st)
	}
	g, err := Shared(q, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Build(q, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != ref.NumEdges() || g.NumNodes() != ref.NumNodes() {
		t.Errorf("migrated graph %d nodes/%d edges, rebuild %d/%d",
			g.NumNodes(), g.NumEdges(), ref.NumNodes(), ref.NumEdges())
	}
}

// TestRepairArenaExact: repair counts the edges it writes before writing
// them, so a repaired graph's edge arena holds exactly its edges — for
// edits that add edges (a widened guard, an added action with a varying
// set of next states) as well as edits that drop them (a narrowed guard, a
// removed action) — and the graph is the one a build gives.
func TestRepairArenaExact(t *testing.T) {
	sch := state.MustSchema(state.IntVar("x", 8), state.IntVar("y", 8))
	step := guarded.Det("step", state.True, func(s state.State) state.State {
		return s.With(0, (s.Get(0)+s.Get(1))%8)
	})
	bump := guarded.Det("bump", state.True, func(s state.State) state.State {
		return s.With(1, (s.Get(1)+1)%8)
	})
	zero := func(min int) guarded.Action {
		return guarded.Det("zero", state.Pred(fmt.Sprintf("x>%d", min), func(s state.State) bool { return s.Get(0) > min }),
			func(s state.State) state.State { return s.With(0, 0) })
	}
	spread := guarded.Choice("spread", state.Pred("x<y", func(s state.State) bool { return s.Get(0) < s.Get(1) }),
		func(s state.State) []state.State {
			var out []state.State
			for v := 0; v <= s.Get(0); v++ {
				out = append(out, s.With(1, v))
			}
			return out
		})
	old := guarded.MustProgram("arena", sch, step, bump, zero(3))
	g, err := Build(old, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		prog *guarded.Program
		plan *RepairPlan
	}{
		{"widen and add", guarded.MustProgram("arena", sch, step, bump, zero(1), spread),
			&RepairPlan{OldActions: 3, OldIndex: []int{0, 1, 2, -1}, Dirt: []ActionDirt{ActionClean, ActionClean, ActionGuardDirty, ActionFullDirty}}},
		{"narrow and remove", guarded.MustProgram("arena", sch, bump, zero(5)),
			&RepairPlan{OldActions: 3, OldIndex: []int{1, 2}, Dirt: []ActionDirt{ActionClean, ActionGuardDirty}}},
	} {
		r, err := Repair(g, tc.prog, tc.plan, state.True, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(r.outEdges) != cap(r.outEdges) {
			t.Errorf("%s: edge arena holds %d edges in a capacity of %d", tc.name, len(r.outEdges), cap(r.outEdges))
		}
		want, err := Build(tc.prog, state.True, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.NumNodes() != want.NumNodes() || r.NumEdges() != want.NumEdges() {
			t.Fatalf("%s: repaired %d states and %d edges, built %d and %d",
				tc.name, r.NumNodes(), r.NumEdges(), want.NumNodes(), want.NumEdges())
		}
		for id := 0; id < r.NumNodes(); id++ {
			if !slices.Equal(r.Out(id), want.Out(id)) {
				t.Fatalf("%s: Out(%d) = %v, built %v", tc.name, id, r.Out(id), want.Out(id))
			}
		}
	}
}
