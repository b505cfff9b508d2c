package absdom

import "sort"

// refStore is the map-backed relational store the slice-backed Store
// replaced, kept as the reference TestStoreMatchesReference compares every
// operation against: string-keyed union-find parents, sets and disequality
// maps, with disequal peers visited in name order.
type refStore struct {
	parent map[string]string          // union-find; absent key = self root
	sets   map[string]Set             // keyed by class representative
	diseq  map[string]map[string]bool // rep -> disequal reps
	bad    bool
}

func newRefStore() *refStore {
	return &refStore{
		parent: map[string]string{},
		sets:   map[string]Set{},
		diseq:  map[string]map[string]bool{},
	}
}

// Define introduces (or re-constrains) a variable with the given value set.
func (s *refStore) Define(name string, set Set) {
	r := s.Rep(name)
	if cur, ok := s.sets[r]; ok {
		s.setAndPropagate(r, Intersect(cur, set))
		return
	}
	s.setAndPropagate(r, set)
}

// Clone returns an independent copy; the original is unaffected by
// assertions on the clone (used for per-branch case splits).
func (s *refStore) Clone() *refStore {
	c := &refStore{
		parent: make(map[string]string, len(s.parent)),
		sets:   make(map[string]Set, len(s.sets)),
		diseq:  make(map[string]map[string]bool, len(s.diseq)),
		bad:    s.bad,
	}
	for k, v := range s.parent {
		c.parent[k] = v
	}
	for k, v := range s.sets {
		c.sets[k] = v
	}
	for k, m := range s.diseq {
		nm := make(map[string]bool, len(m))
		for k2 := range m {
			nm[k2] = true
		}
		c.diseq[k] = nm
	}
	return c
}

// Rep returns the representative of name's equality class (path-halving
// find; a never-seen name is its own class).
func (s *refStore) Rep(name string) string {
	for {
		p, ok := s.parent[name]
		if !ok || p == name {
			return name
		}
		if gp, ok := s.parent[p]; ok && gp != p {
			s.parent[name] = gp
		}
		name = p
	}
}

// SetOf returns the value set of name's class. Undefined variables are
// unconstrained (a full interval would be unknown here, so callers Define
// every variable before asserting).
func (s *refStore) SetOf(name string) (Set, bool) {
	set, ok := s.sets[s.Rep(name)]
	return set, ok
}

// Contradictory reports whether some asserted constraint combination is
// unsatisfiable — the branch is infeasible.
func (s *refStore) Contradictory() bool { return s.bad }

// MarkContradictory records an externally-detected contradiction (e.g. from
// a literal the caller decided by enumeration).
func (s *refStore) MarkContradictory() { s.bad = true }

// Narrow intersects name's class set with set and propagates. It reports
// whether the store changed.
func (s *refStore) Narrow(name string, set Set) bool {
	r := s.Rep(name)
	cur, ok := s.sets[r]
	if !ok {
		s.setAndPropagate(r, set)
		return true
	}
	next := Intersect(cur, set)
	if Equal(next, cur) {
		return false
	}
	s.setAndPropagate(r, next)
	return true
}

// setAndPropagate installs a class set and runs singleton-disequality
// propagation to fixpoint: when a class narrows to {v}, every disequal
// class loses v.
func (s *refStore) setAndPropagate(rep string, set Set) {
	work := []string{rep}
	s.sets[rep] = set
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		cur := s.sets[r]
		if cur.IsEmpty() {
			s.bad = true
			return
		}
		v, single := cur.Singleton()
		if !single {
			continue
		}
		for _, other := range sortedPeers(s.diseq[r]) {
			os, ok := s.sets[other]
			if !ok || !os.Contains(v) {
				continue
			}
			next := os.Remove(v)
			s.sets[other] = next
			if next.IsEmpty() {
				s.bad = true
				return
			}
			work = append(work, other)
		}
	}
}

func sortedPeers(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Equate asserts a == b: merges their classes, intersects their sets, and
// flags contradiction if they were asserted disequal. It reports whether
// the store changed.
func (s *refStore) Equate(a, b string) bool {
	ra, rb := s.Rep(a), s.Rep(b)
	if ra == rb {
		return false
	}
	if s.diseq[ra][rb] {
		s.bad = true
		return true
	}
	// Merge rb into ra.
	s.parent[rb] = ra
	sb, okB := s.sets[rb]
	delete(s.sets, rb)
	// Re-point rb's disequalities at ra.
	for other := range s.diseq[rb] {
		delete(s.diseq[other], rb)
		if other == ra {
			continue
		}
		s.addDiseq(ra, other)
	}
	delete(s.diseq, rb)
	sa, okA := s.sets[ra]
	switch {
	case okA && okB:
		s.setAndPropagate(ra, Intersect(sa, sb))
	case okB:
		s.setAndPropagate(ra, sb)
	case okA:
		s.setAndPropagate(ra, sa)
	}
	return true
}

// Disequate asserts a != b. Same-class variables contradict; a singleton
// class prunes its partner's set. It reports whether the store changed.
func (s *refStore) Disequate(a, b string) bool {
	ra, rb := s.Rep(a), s.Rep(b)
	if ra == rb {
		s.bad = true
		return true
	}
	if s.diseq[ra][rb] {
		return false
	}
	s.addDiseq(ra, rb)
	changed := true
	if v, ok := s.singletonOf(ra); ok {
		s.pruneValue(rb, v)
	}
	if v, ok := s.singletonOf(rb); ok {
		s.pruneValue(ra, v)
	}
	return changed
}

func (s *refStore) addDiseq(a, b string) {
	if s.diseq[a] == nil {
		s.diseq[a] = map[string]bool{}
	}
	if s.diseq[b] == nil {
		s.diseq[b] = map[string]bool{}
	}
	s.diseq[a][b] = true
	s.diseq[b][a] = true
}

func (s *refStore) singletonOf(rep string) (int, bool) {
	set, ok := s.sets[rep]
	if !ok {
		return 0, false
	}
	return set.Singleton()
}

func (s *refStore) pruneValue(rep string, v int) {
	set, ok := s.sets[rep]
	if !ok || !set.Contains(v) {
		return
	}
	s.setAndPropagate(rep, set.Remove(v))
}

// Disequal reports whether a and b are asserted (or derived) disequal.
func (s *refStore) Disequal(a, b string) bool {
	ra, rb := s.Rep(a), s.Rep(b)
	if ra == rb {
		return false
	}
	if s.diseq[ra][rb] {
		return true
	}
	sa, okA := s.sets[ra]
	sb, okB := s.sets[rb]
	if okA && okB && sa.Exact() && sb.Exact() && Intersect(sa, sb).IsEmpty() {
		return true
	}
	return false
}
