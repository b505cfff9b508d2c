package state

import (
	"fmt"
	"sort"
	"strings"
)

// Schema is an ordered list of variable declarations. The order fixes the
// mixed-radix encoding of states, so two states over the same *Schema are
// comparable by index. Schemas are immutable after construction.
type Schema struct {
	vars    []Var
	byName  map[string]int
	radix   []uint64 // radix[i] = product of domain sizes of vars[i+1:]
	size    uint64   // total number of states; 0 means "too large"
	bounded bool     // size fits in 62 bits
}

// maxIndexedStates bounds the schemas the explicit-state checkers accept.
const maxIndexedStates = uint64(1) << 62

// NewSchema builds a schema from variable declarations. Variable names must
// be unique and domains nonempty.
func NewSchema(vars ...Var) (*Schema, error) {
	s := &Schema{
		vars:   append([]Var(nil), vars...),
		byName: make(map[string]int, len(vars)),
	}
	for i, v := range s.vars {
		if v.Name == "" {
			return nil, fmt.Errorf("state: variable %d has empty name", i)
		}
		if err := v.Domain.Validate(); err != nil {
			return nil, fmt.Errorf("state: variable %q: %w", v.Name, err)
		}
		if _, dup := s.byName[v.Name]; dup {
			return nil, fmt.Errorf("state: duplicate variable %q", v.Name)
		}
		s.byName[v.Name] = i
	}
	s.radix = make([]uint64, len(s.vars))
	prod := uint64(1)
	s.bounded = true
	for i := len(s.vars) - 1; i >= 0; i-- {
		s.radix[i] = prod
		d := uint64(s.vars[i].Domain.Size)
		if prod > maxIndexedStates/d {
			s.bounded = false
			prod = 0
			// Keep filling radix entries with zero for the remaining
			// (more significant) variables; indices are unusable anyway.
			for j := i - 1; j >= 0; j-- {
				s.radix[j] = 0
			}
			break
		}
		prod *= d
	}
	s.size = prod
	return s, nil
}

// MustSchema is NewSchema but panics on invalid declarations. It is intended
// for package-level construction of the built-in case studies, where a
// failure is a programming error.
func MustSchema(vars ...Var) *Schema {
	s, err := NewSchema(vars...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumVars returns the number of declared variables.
func (s *Schema) NumVars() int { return len(s.vars) }

// Var returns the i-th variable declaration.
func (s *Schema) Var(i int) Var { return s.vars[i] }

// DomainSize returns the number of values of the i-th variable: Var(i)'s
// domain size without copying the declaration, for per-state loops.
func (s *Schema) DomainSize(i int) int { return s.vars[i].Domain.Size }

// VarNames returns the declared variable names in schema order.
func (s *Schema) VarNames() []string {
	names := make([]string, len(s.vars))
	for i, v := range s.vars {
		names[i] = v.Name
	}
	return names
}

// IndexOf resolves a variable name to its position. It reports false for
// undeclared names.
func (s *Schema) IndexOf(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// MustIndexOf resolves a variable name, panicking if it is undeclared; for
// use in statically known programs.
func (s *Schema) MustIndexOf(name string) int {
	i, ok := s.byName[name]
	if !ok {
		panic(fmt.Sprintf("state: undeclared variable %q (declared: %s)", name, strings.Join(s.VarNames(), ", ")))
	}
	return i
}

// NumStates returns the size of the state space and whether it fits the
// 64-bit index (state spaces beyond 2^62 cannot be enumerated).
func (s *Schema) NumStates() (uint64, bool) { return s.size, s.bounded }

// Indexable returns an error unless the schema's full state space can be
// enumerated and indexed.
func (s *Schema) Indexable() error {
	if !s.bounded {
		return ErrDomainTooLarge
	}
	return nil
}

// StateAt returns the state with the given mixed-radix index. The index must
// be in [0, NumStates()).
func (s *Schema) StateAt(idx uint64) State {
	vals := make([]int32, len(s.vars))
	s.DecodeInto(vals, idx)
	return State{schema: s, vals: vals}
}

// DecodeInto writes the value vector of the state with the given mixed-radix
// index into vals, which must have exactly NumVars entries. It is the
// allocation-free form of StateAt: the compiled transition kernel and the
// graph's state arena decode into reusable rows with it. The schema must be
// indexable.
//
//dc:zeroalloc
func (s *Schema) DecodeInto(vals []int32, idx uint64) {
	if len(vals) != len(s.vars) {
		panic(fmt.Sprintf("state: DecodeInto %d slots for %d variables", len(vals), len(s.vars)))
	}
	for i := range s.vars {
		r := s.radix[i]
		vals[i] = int32(idx / r)
		idx %= r
	}
}

// IndexOfVals returns the canonical mixed-radix index of the raw value
// vector, the inverse of DecodeInto. Values are not domain-checked; callers
// (the kernel) guarantee in-domain rows.
//
//dc:zeroalloc
func (s *Schema) IndexOfVals(vals []int32) uint64 {
	var idx uint64
	for i, v := range vals {
		idx += uint64(v) * s.radix[i]
	}
	return idx
}

// Radix returns the mixed-radix weight of variable i: the contribution of
// one unit of vals[i] to the state index (the product of the domain sizes of
// the variables after i). Zero when the schema is not indexable.
//
//dc:zeroalloc
func (s *Schema) Radix(i int) uint64 { return s.radix[i] }

// ViewState wraps a caller-owned value vector as a State without copying.
// The caller must not mutate vals while the view (or anything derived from
// it through Equal/Index/Get) is in use; mutating methods such as With still
// copy, so views respect the package's immutability contract as long as the
// backing row is stable. Values are not domain-checked.
//
//dc:zeroalloc
func (s *Schema) ViewState(vals []int32) State {
	if len(vals) != len(s.vars) {
		panic(fmt.Sprintf("state: ViewState over %d values for %d variables", len(vals), len(s.vars)))
	}
	return State{schema: s, vals: vals}
}

// ForEachState calls fn for every state of the schema in index order,
// stopping early if fn returns false. It returns ErrDomainTooLarge when the
// space is not enumerable.
func (s *Schema) ForEachState(fn func(State) bool) error {
	if err := s.Indexable(); err != nil {
		return err
	}
	vals := make([]int32, len(s.vars))
	for {
		st := State{schema: s, vals: append([]int32(nil), vals...)}
		if !fn(st) {
			return nil
		}
		// Increment the mixed-radix counter.
		i := len(vals) - 1
		for ; i >= 0; i-- {
			vals[i]++
			if int(vals[i]) < s.vars[i].Domain.Size {
				break
			}
			vals[i] = 0
		}
		if i < 0 {
			return nil
		}
	}
}

// Extend returns a new schema with the given variables appended. Name
// clashes with existing variables are rejected. Extension models the paper's
// refinement setting where the tolerant program p' adds variables (for
// example the witness Z1 in Figure 1) to the intolerant program p.
func (s *Schema) Extend(vars ...Var) (*Schema, error) {
	all := make([]Var, 0, len(s.vars)+len(vars))
	all = append(all, s.vars...)
	all = append(all, vars...)
	return NewSchema(all...)
}

// String renders the schema as "name:domainSize" pairs.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range s.vars {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%d", v.Name, v.Domain.Size)
	}
	b.WriteByte('}')
	return b.String()
}

// SortedNames returns variable names sorted lexicographically; useful for
// deterministic diagnostics.
func (s *Schema) SortedNames() []string {
	names := s.VarNames()
	sort.Strings(names)
	return names
}
