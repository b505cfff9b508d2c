package difftest

import (
	"slices"
	"strings"
	"testing"

	"detcorr/internal/explore"
	"detcorr/internal/flow"
	"detcorr/internal/gcl"
	"detcorr/internal/state"
)

// TestRepairMatchesRebuildOnExamples is the repair acceptance difftest:
// for every example system and the scripted edit set (guard tweaks, an
// assignment change, action add/remove), explore.Repair must produce a
// graph structurally identical to a from-scratch build of the edited
// revision — under each system's interesting init predicates as well as
// the full state space, and again through the graph cache with every
// odd-numbered action unfair, which exercises the fairness mask a migration
// rebuilds from its cache key and the deadlock set it recomputes.
func TestRepairMatchesRebuildOnExamples(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		inits []string
	}{
		{"ring3", RingSource(3, 3), []string{"", "Legit"}},
		{"ring4x2", RingSource(4, 2), []string{"", "Legit"}},
		{"memaccess_pm", MemaccessPM, []string{"", "S", "X1", "NotZ1"}},
		{"memaccess_pf", MemaccessPF, []string{"", "S"}},
		{"memaccess_pn", MemaccessPN, []string{"", "X1"}},
		{"tmr", TMRSource, []string{"", "S", "T"}},
		{"ring_watched3", RingWatchedSource(3, 3), []string{"", "Legit"}},
		{"memaccess_pair", MemaccessPairSource, []string{""}},
		{"byzagree", ByzAgreeSource, []string{"", "S"}},
	}
	edits := StandardEdits()
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if err := CheckRepair(tc.src, tc.inits, edits...); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// carrySrc declares predicates that an edit can leave alone (Even), change
// (Low) or change only through a reference (Both, which expands Low).
const carrySrc = `program carry
var x : 0..5
var y : 0..3
pred Low :: x < 3
pred Even :: x % 2 == 0
pred Both :: Low & y == 0
action incx :: x < 5 -> x := x + 1
action incy :: y < 3 -> y := y + 1
action reset :: x == 5 & y == 3 -> x := 0
`

// TestMigrateCarriesPredicateSets: a migrated graph with the old node set
// keeps the old graph's predicate sets for the names the revision plan
// certifies unchanged, and recomputes the rest. Three saves migrate a
// graph whose memo holds every declared predicate's set: a predicate-only
// edit (rebind), a predicate and guard edit from true (repair in place),
// and a guard edit that strands states of a graph from Even (repair with
// renumbering, which carries nothing). On each migrated graph, SetOf of
// every declared predicate must equal a fresh build's, and SetOf of an
// unchanged predicate must be answered without evaluating it whenever the
// node set survived.
func TestMigrateCarriesPredicateSets(t *testing.T) {
	saves := []struct {
		name, init string
		edit       func(string) string
		carried    bool // the node set survives, so unchanged sets carry over
	}{
		{"rebind", "", func(s string) string {
			return strings.Replace(s, "pred Low :: x < 3", "pred Low :: x < 2", 1)
		}, true},
		{"repair-in-place", "", func(s string) string {
			s = strings.Replace(s, "pred Low :: x < 3", "pred Low :: x < 2", 1)
			return strings.Replace(s, "action incy :: y < 3", "action incy :: y < 2", 1)
		}, true},
		{"repair-renumber", "Even", func(s string) string {
			return strings.Replace(s, "action incx :: x < 5", "action incx :: x < 2", 1)
		}, false},
	}
	for _, sv := range saves {
		t.Run(sv.name, func(t *testing.T) {
			old, err := gcl.ParseAndCompile(carrySrc)
			if err != nil {
				t.Fatal(err)
			}
			newSrc := sv.edit(carrySrc)
			if newSrc == carrySrc {
				t.Fatal("the edit changed nothing")
			}
			cur, err := gcl.ParseAndCompile(newSrc)
			if err != nil {
				t.Fatal(err)
			}
			init := state.True
			if sv.init != "" {
				init = old.Preds[sv.init]
			}
			g, err := explore.Shared(old.Program, init, explore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer explore.EvictProgram(cur.Program)
			g.SetOf(state.True)
			for _, p := range old.Preds {
				g.SetOf(p)
			}
			plan := flow.PlanRepair(old.AST, cur.AST)
			resolve := func(name string) (state.Predicate, bool) {
				if name == state.True.String() {
					return state.True, true
				}
				if p, ok := old.Preds[name]; ok && plan.SamePreds[name] {
					return p, true
				}
				return state.Predicate{}, false
			}
			if st := explore.MigrateProgram(old.Program, cur.Program, plan.Graph, resolve); st.Rebound+st.Repaired != 1 {
				t.Fatalf("migrate stats %+v, want the cached graph moved", st)
			}
			if sv.carried && plan.SamePreds["Low"] {
				t.Fatal("the plan calls the edited Low unchanged")
			}
			newInit := state.True
			if sv.init != "" {
				newInit = cur.Preds[sv.init]
			}
			mg, ok := explore.Peek(cur.Program, newInit, explore.Options{})
			if !ok {
				t.Fatal("the migrated graph is not cached")
			}
			if sv.carried != (mg.NumNodes() == g.NumNodes()) {
				t.Fatalf("the save left %d of %d nodes; the scenario expects the node set to survive: %v", mg.NumNodes(), g.NumNodes(), sv.carried)
			}
			if sv.carried {
				for name, p := range cur.Preds {
					if !plan.SamePreds[name] {
						continue
					}
					evals := 0
					counting := state.Pred(name, func(s state.State) bool { evals++; return p.Holds(s) })
					mg.SetOf(counting)
					if evals != 0 {
						t.Errorf("SetOf(%s) evaluated the unchanged predicate %d times; its set was not carried over", name, evals)
					}
				}
			}
			ref, err := explore.Build(cur.Program, newInit, explore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := Diff(ref, mg); err != nil {
				t.Fatalf("migrated graph differs from rebuild: %v", err)
			}
			for name, p := range cur.Preds {
				if got, want := mg.SetOf(p).Slice(), ref.SetOf(p).Slice(); !slices.Equal(got, want) {
					t.Errorf("SetOf(%s) on the migrated graph = %v, fresh build %v", name, got, want)
				}
			}
			if got, want := mg.SetOf(state.True).Count(), ref.NumNodes(); got != want {
				t.Errorf("SetOf(true) on the migrated graph has %d nodes, want %d", got, want)
			}
		})
	}
}
