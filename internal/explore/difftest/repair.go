package difftest

import (
	"fmt"

	"detcorr/internal/explore"
	"detcorr/internal/flow"
	"detcorr/internal/gcl"
	"detcorr/internal/state"
)

// Edit is a scripted mutation of a parsed file, applied to the AST so the
// same edit script works across every example system. Apply reports
// whether the edit is applicable (e.g. it needs an action to exist);
// CheckRepair treats an inapplicable edit as a harness bug.
type Edit struct {
	Name  string
	Apply func(ast *gcl.FileAST) bool
}

// StandardEdits is the scripted edit set of the repair acceptance
// criterion: guard tweaks (semantic no-op, widening, narrowing), an
// assignment change, and action add/remove, plus the identity edit that
// must take the zero-cost rebind path. Each is generic over any system
// with at least one action.
func StandardEdits() []Edit {
	return []Edit{
		{Name: "identity", Apply: func(ast *gcl.FileAST) bool { return true }},
		{Name: "guard-noop", Apply: func(ast *gcl.FileAST) bool {
			// g → !(!g): syntactically dirty, semantically identical. The
			// repair must notice enabledness is unchanged and copy spans.
			if len(ast.Actions) == 0 {
				return false
			}
			g := ast.Actions[0].Guard
			ast.Actions[0].Guard = &gcl.Unary{Op: gcl.NOT, X: &gcl.Unary{Op: gcl.NOT, X: g}}
			return true
		}},
		{Name: "guard-widen", Apply: func(ast *gcl.FileAST) bool {
			// g → g | !g: the action fires everywhere, adding edges and
			// possibly discovering states the old graph never reached.
			if len(ast.Actions) == 0 {
				return false
			}
			g := ast.Actions[0].Guard
			ast.Actions[0].Guard = &gcl.Binary{Op: gcl.OR, L: g, R: &gcl.Unary{Op: gcl.NOT, X: g}}
			return true
		}},
		{Name: "guard-narrow", Apply: func(ast *gcl.FileAST) bool {
			// g → g & !g: the action never fires, deleting its edges and
			// possibly shrinking reachability (the renumbering path).
			if len(ast.Actions) == 0 {
				return false
			}
			i := len(ast.Actions) - 1
			g := ast.Actions[i].Guard
			ast.Actions[i].Guard = &gcl.Binary{Op: gcl.AND, L: g, R: &gcl.Unary{Op: gcl.NOT, X: g}}
			return true
		}},
		{Name: "guard-narrow-all", Apply: func(ast *gcl.FileAST) bool {
			// Disable every action: reachability collapses to the init set
			// itself, stranding every state the old graph reached only
			// through program moves — the renumber-with-drops path.
			if len(ast.Actions) == 0 {
				return false
			}
			for i := range ast.Actions {
				g := ast.Actions[i].Guard
				ast.Actions[i].Guard = &gcl.Binary{Op: gcl.AND, L: g, R: &gcl.Unary{Op: gcl.NOT, X: g}}
			}
			return true
		}},
		{Name: "assign-change", Apply: func(ast *gcl.FileAST) bool {
			// First deterministic assignment x := e becomes x := x: always
			// type-correct, always in-domain, and a different transition
			// function (the action turns into a guarded self-loop on x).
			for i := range ast.Actions {
				for j := range ast.Actions[i].Assigns {
					a := &ast.Actions[i].Assigns[j]
					if a.Expr != nil {
						a.Expr = &gcl.Ref{Name: a.Var}
						return true
					}
				}
			}
			return false
		}},
		{Name: "action-add", Apply: func(ast *gcl.FileAST) bool {
			// Append a fresh action duplicating the first one's behavior
			// under a new name: new edges with a new action index, and a
			// Dirt entry with no old counterpart.
			if len(ast.Actions) == 0 {
				return false
			}
			d := ast.Actions[0]
			d.Name = "difftest_added"
			ast.Actions = append(ast.Actions, d)
			return true
		}},
		{Name: "action-remove", Apply: func(ast *gcl.FileAST) bool {
			// Drop the last action: every surviving action's index may
			// shift, and the removed edges may strand states.
			if len(ast.Actions) == 0 {
				return false
			}
			ast.Actions = ast.Actions[:len(ast.Actions)-1]
			return true
		}},
	}
}

// StandardEdit returns the edit of StandardEdits with the given name.
func StandardEdit(name string) (Edit, bool) {
	for _, ed := range StandardEdits() {
		if ed.Name == name {
			return ed, true
		}
	}
	return Edit{}, false
}

// Revision is one scripted edit of a source: both revisions compiled, and
// the plan flow.PlanRepair derives between them.
type Revision struct {
	Old, New *gcl.File
	Plan     *flow.Plan
}

// Revise applies ed to src and compiles both revisions. The edits above
// never touch variables or predicates, so the plan must carry a graph
// repair component; Revise fails when it does not.
func Revise(src string, ed Edit) (*Revision, error) {
	oldAST, err := gcl.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: parse old: %w", ed.Name, err)
	}
	newAST, err := gcl.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: parse new: %w", ed.Name, err)
	}
	if !ed.Apply(newAST) {
		return nil, fmt.Errorf("%s: edit not applicable to this system", ed.Name)
	}
	oldFile, err := gcl.Compile(oldAST)
	if err != nil {
		return nil, fmt.Errorf("%s: compile old: %w", ed.Name, err)
	}
	newFile, err := gcl.Compile(newAST)
	if err != nil {
		return nil, fmt.Errorf("%s: compile new: %w", ed.Name, err)
	}
	plan := flow.PlanRepair(oldAST, newAST)
	if plan.Graph == nil {
		return nil, fmt.Errorf("%s: plan has no graph repair component", ed.Name)
	}
	if ed.Name == "identity" && !plan.Identity() {
		return nil, fmt.Errorf("identity: plan did not classify the no-op edit as identity")
	}
	return &Revision{Old: oldFile, New: newFile, Plan: plan}, nil
}

// inits resolves an init predicate name ("" means true) in both revisions,
// after checking that the plan certifies its extension unchanged.
func (r *Revision) inits(name string) (old, new state.Predicate, err error) {
	if name == "" {
		return state.True, state.True, nil
	}
	if !r.Plan.SamePreds[name] {
		return old, new, fmt.Errorf("init pred %q not plan-same; harness edits must not touch predicates", name)
	}
	var ok bool
	if old, ok = r.Old.Pred(name); !ok {
		return old, new, fmt.Errorf("old file has no pred %q", name)
	}
	if new, ok = r.New.Pred(name); !ok {
		return old, new, fmt.Errorf("new file has no pred %q", name)
	}
	return old, new, nil
}

// CheckRepair applies each edit to the source, builds the old graph from
// the unedited revision, repairs it onto the edited revision with the plan
// flow.PlanRepair derives, and verifies the result is structurally
// identical to a from-scratch build of the edited revision — for every
// init predicate name ("" means true).
//
// It then repeats the check with every odd-numbered action unfair, through
// the graph cache: the old graph is cached by explore.Shared under that
// mask, explore.MigrateProgram repairs it — rebuilding the mask from the
// cache key position by position, with actions past the old count unfair
// unless the old mask was all fair — and the migrated graph must equal a
// from-scratch build under that mask, deadlock set included.
func CheckRepair(src string, inits []string, edits ...Edit) error {
	for _, ed := range edits {
		rev, err := Revise(src, ed)
		if err != nil {
			return err
		}
		oldFair := make([]bool, rev.Old.Program.NumActions())
		for a := range oldFair {
			oldFair[a] = a%2 == 0
		}
		newFair := make([]bool, rev.New.Program.NumActions())
		for a := range newFair {
			newFair[a] = len(oldFair) < 2 || a < len(oldFair) && oldFair[a]
		}
		for _, initName := range inits {
			oldInit, newInit, err := rev.inits(initName)
			if err != nil {
				return fmt.Errorf("%s: %w", ed.Name, err)
			}
			oldG, err := explore.Build(rev.Old.Program, oldInit, explore.Options{})
			if err != nil {
				return fmt.Errorf("%s/%q: build old: %w", ed.Name, initName, err)
			}
			ref, err := explore.Build(rev.New.Program, newInit, explore.Options{})
			if err != nil {
				return fmt.Errorf("%s/%q: build reference: %w", ed.Name, initName, err)
			}
			repaired, err := explore.Repair(oldG, rev.New.Program, rev.Plan.Graph, oldInit, explore.Options{})
			if err != nil {
				return fmt.Errorf("%s/%q: repair: %w", ed.Name, initName, err)
			}
			if err := Diff(ref, repaired); err != nil {
				return fmt.Errorf("%s/%q: repaired graph differs from rebuild: %w", ed.Name, initName, err)
			}

			if _, err := explore.Shared(rev.Old.Program, oldInit, explore.Options{Fair: oldFair}); err != nil {
				return fmt.Errorf("%s/%q unfair: build old: %w", ed.Name, initName, err)
			}
			resolve := func(name string) (state.Predicate, bool) { return oldInit, name == oldInit.String() }
			st := explore.MigrateProgram(rev.Old.Program, rev.New.Program, rev.Plan.Graph, resolve)
			if st.Rebound+st.Repaired != 1 {
				return fmt.Errorf("%s/%q unfair: migrate stats %+v, want the cached graph moved", ed.Name, initName, st)
			}
			migrated, ok := explore.Peek(rev.New.Program, newInit, explore.Options{Fair: newFair})
			explore.EvictProgram(rev.New.Program)
			if !ok {
				return fmt.Errorf("%s/%q unfair: the migrated graph is not cached under the new mask", ed.Name, initName)
			}
			ref, err = explore.Build(rev.New.Program, newInit, explore.Options{Fair: newFair})
			if err != nil {
				return fmt.Errorf("%s/%q unfair: build reference: %w", ed.Name, initName, err)
			}
			if err := Diff(ref, migrated); err != nil {
				return fmt.Errorf("%s/%q unfair: migrated graph differs from rebuild: %w", ed.Name, initName, err)
			}
		}
	}
	return nil
}
