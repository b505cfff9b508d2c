package state

import (
	"fmt"
	"strings"
)

// Predicate is a state predicate (Section 2.1): a boolean expression over
// the variables of a program, identified with the set of states in which it
// is true. The Name is used in diagnostics and counterexamples.
type Predicate struct {
	Name string
	Eval func(State) bool
	// Row, when set, is Eval on a raw value row of the schema the predicate
	// was compiled for: Row(vals) == Eval(schema.ViewState(vals)). Graph
	// sweeps use it to test arena rows without building a State. GCL
	// predicates carry it (their bytecode); the combinators below drop it.
	Row func(vals []int32) bool
}

// Pred constructs a named predicate.
func Pred(name string, eval func(State) bool) Predicate {
	return Predicate{Name: name, Eval: eval}
}

// True is the predicate satisfied by every state.
var True = Predicate{Name: "true", Eval: func(State) bool { return true }}

// False is the predicate satisfied by no state.
var False = Predicate{Name: "false", Eval: func(State) bool { return false }}

// Holds evaluates the predicate; the zero Predicate behaves like True so
// that optional restriction predicates can be left unset.
func (p Predicate) Holds(s State) bool {
	if p.Eval == nil {
		return true
	}
	return p.Eval(s)
}

// IsTrivial reports whether the predicate is the zero value (treated as
// true).
func (p Predicate) IsTrivial() bool { return p.Eval == nil }

// String returns the predicate name, or "true" for the zero value.
func (p Predicate) String() string {
	if p.Name == "" {
		if p.Eval == nil {
			return "true"
		}
		return "<anonymous>"
	}
	return p.Name
}

// Not returns the negation ¬p.
func Not(p Predicate) Predicate {
	return Predicate{
		Name: fmt.Sprintf("¬(%s)", p),
		Eval: func(s State) bool { return !p.Holds(s) },
	}
}

// And returns the conjunction of the given predicates; And() is True.
func And(ps ...Predicate) Predicate {
	if len(ps) == 1 {
		return ps[0]
	}
	return Predicate{
		Name: joinNames(" ∧ ", ps),
		Eval: func(s State) bool {
			for _, p := range ps {
				if !p.Holds(s) {
					return false
				}
			}
			return true
		},
	}
}

// Or returns the disjunction of the given predicates; Or() is False.
func Or(ps ...Predicate) Predicate {
	if len(ps) == 1 {
		return ps[0]
	}
	return Predicate{
		Name: joinNames(" ∨ ", ps),
		Eval: func(s State) bool {
			for _, p := range ps {
				if p.Holds(s) {
					return true
				}
			}
			return false
		},
	}
}

// Implies returns p ⇒ q as a predicate.
func Implies(p, q Predicate) Predicate {
	return Predicate{
		Name: fmt.Sprintf("(%s) ⇒ (%s)", p, q),
		Eval: func(s State) bool { return !p.Holds(s) || q.Holds(s) },
	}
}

func joinNames(sep string, ps []Predicate) string {
	if len(ps) == 0 {
		if sep == " ∧ " {
			return "true"
		}
		return "false"
	}
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.String()
	}
	return "(" + strings.Join(names, sep) + ")"
}

// VarEquals returns the predicate "name = value". The schema is used only
// to render the value symbolically; evaluation resolves the variable by name
// on the state's own schema, so the predicate remains meaningful on any
// schema declaring the variable — exactly what the paper's projection-based
// refinement setting needs (the same specification predicate is evaluated on
// states of both p and p').
func VarEquals(s *Schema, name string, value int) Predicate {
	i := s.MustIndexOf(name)
	return Predicate{
		Name: fmt.Sprintf("%s=%s", name, s.Var(i).Domain.ValueName(value)),
		Eval: func(st State) bool { return st.GetName(name) == value },
	}
}

// VarTrue returns the predicate "name" for a boolean variable, resolved by
// name on the state's own schema (see VarEquals).
func VarTrue(s *Schema, name string) Predicate {
	s.MustIndexOf(name) // validate eagerly
	return Predicate{
		Name: name,
		Eval: func(st State) bool { return st.GetName(name) != 0 },
	}
}

// ImpliesEverywhere checks the implication p ⇒ q over the whole state space
// of the schema, returning a witness state violating it, if any.
func ImpliesEverywhere(s *Schema, p, q Predicate) (ok bool, witness State, err error) {
	ok = true
	err = s.ForEachState(func(st State) bool {
		if p.Holds(st) && !q.Holds(st) {
			ok = false
			witness = st
			return false
		}
		return true
	})
	if err != nil {
		return false, State{}, err
	}
	return ok, witness, nil
}

// CountStates returns how many states of the schema satisfy the predicate.
func CountStates(s *Schema, p Predicate) (uint64, error) {
	var n uint64
	err := s.ForEachState(func(st State) bool {
		if p.Holds(st) {
			n++
		}
		return true
	})
	return n, err
}
