package absdom

import "math/bits"

// Store is a relational constraint store over named finite-domain
// variables: per-variable value Sets, equalities maintained as union-find
// classes, and disequalities between classes. Guard atoms are asserted into
// the store (Equate, Disequate, Narrow) and propagate: intersecting the
// sets of merged classes, pruning a disequal partner's set when a class
// narrows to a singleton, and flagging contradiction when any class's set
// empties — the basis for refutation-style proofs in internal/prove.
//
// All operations are monotone (sets only shrink), so any assertion sequence
// reaches the same fixpoint regardless of order.
//
// Names are interned to slots the first time an operation records
// something about them, and the union-find parents, the class sets and a
// disequality bit matrix live in slices indexed by slot, so Clone copies
// slices. A store and its clones share one name table: use them from one
// goroutine.
type Store struct {
	names   *nameTable
	parent  []int32  // union-find by slot; parent[i] == i for a root
	sets    []Set    // by class representative; zero when undefined
	defined []bool   // whether sets[rep] has been set
	diseq   []uint64 // bit matrix of disequal representatives, stride words per row
	stride  int
	bad     bool
}

// nameTable maps names to slots. It only grows, so a slot means the same
// name in every store that shares the table; a slot past a store's slices
// is a name that store has never seen. Up to smallTable names are found
// by a linear scan, which for the few variables of most programs is
// cheaper than building a map in every store.
type nameTable struct {
	names []string
	slot  map[string]int32 // nil until the table outgrows smallTable
}

const smallTable = 16

func (t *nameTable) find(name string) (int, bool) {
	if t.slot != nil {
		i, ok := t.slot[name]
		return int(i), ok
	}
	for i, n := range t.names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

func (t *nameTable) add(name string) int {
	i := len(t.names)
	t.names = append(t.names, name)
	if t.slot == nil && len(t.names) > smallTable {
		t.slot = make(map[string]int32, 2*len(t.names))
		for j, n := range t.names {
			t.slot[n] = int32(j)
		}
	} else if t.slot != nil {
		t.slot[name] = int32(i)
	}
	return i
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{names: &nameTable{}}
}

// Define introduces (or re-constrains) a variable with the given value set.
func (s *Store) Define(name string, set Set) {
	r := s.find(s.intern(name))
	if s.defined[r] {
		s.setAndPropagate(r, Intersect(s.sets[r], set))
		return
	}
	s.setAndPropagate(r, set)
}

// Clone returns an independent copy; the original is unaffected by
// assertions on the clone (used for per-branch case splits).
func (s *Store) Clone() *Store {
	return &Store{
		names:   s.names,
		parent:  append([]int32(nil), s.parent...),
		sets:    append([]Set(nil), s.sets...),
		defined: append([]bool(nil), s.defined...),
		diseq:   append([]uint64(nil), s.diseq...),
		stride:  s.stride,
		bad:     s.bad,
	}
}

// lookup returns name's slot, or false when this store has never recorded
// anything about it.
func (s *Store) lookup(name string) (int, bool) {
	i, ok := s.names.find(name)
	if !ok || i >= len(s.parent) {
		return 0, false
	}
	return i, true
}

// intern returns name's slot, adding the name to the table and growing
// this store's slices as needed. A new slot is its own undefined class.
func (s *Store) intern(name string) int {
	i, ok := s.names.find(name)
	if !ok {
		i = s.names.add(name)
	}
	if i >= len(s.parent) {
		s.grow(i + 1)
	}
	return i
}

// grow extends the slices to n slots, widening the bit matrix's rows when
// they no longer hold n bits.
func (s *Store) grow(n int) {
	old := len(s.parent)
	if old == 0 {
		// Most stores hold a handful of variables: size them once.
		c := max(n, 8)
		s.parent, s.sets, s.defined = make([]int32, 0, c), make([]Set, 0, c), make([]bool, 0, c)
		s.stride = (c + 63) / 64
		s.diseq = make([]uint64, 0, c*s.stride)
	}
	for i := old; i < n; i++ {
		s.parent = append(s.parent, int32(i))
		s.sets = append(s.sets, Set{})
		s.defined = append(s.defined, false)
	}
	if stride := (n + 63) / 64; stride > s.stride {
		m := make([]uint64, n*stride)
		for i := 0; i < old; i++ {
			copy(m[i*stride:], s.diseq[i*s.stride:(i+1)*s.stride])
		}
		s.diseq, s.stride = m, stride
		return
	}
	s.diseq = append(s.diseq, make([]uint64, (n-old)*s.stride)...)
}

// find returns the representative slot of i's class (path halving).
func (s *Store) find(i int) int {
	for {
		p := int(s.parent[i])
		if p == i {
			return i
		}
		if gp := s.parent[p]; int(gp) != p {
			s.parent[i] = gp
		}
		i = p
	}
}

// Rep returns the representative of name's equality class (a never-seen
// name is its own class).
func (s *Store) Rep(name string) string {
	i, ok := s.lookup(name)
	if !ok {
		return name
	}
	return s.names.names[s.find(i)]
}

// SetOf returns the value set of name's class. Undefined variables are
// unconstrained (a full interval would be unknown here, so callers Define
// every variable before asserting).
func (s *Store) SetOf(name string) (Set, bool) {
	i, ok := s.lookup(name)
	if !ok {
		return Set{}, false
	}
	r := s.find(i)
	return s.sets[r], s.defined[r]
}

// Contradictory reports whether some asserted constraint combination is
// unsatisfiable — the branch is infeasible.
func (s *Store) Contradictory() bool { return s.bad }

// MarkContradictory records an externally-detected contradiction (e.g. from
// a literal the caller decided by enumeration).
func (s *Store) MarkContradictory() { s.bad = true }

// Narrow intersects name's class set with set and propagates. It reports
// whether the store changed.
func (s *Store) Narrow(name string, set Set) bool {
	r := s.find(s.intern(name))
	if !s.defined[r] {
		s.setAndPropagate(r, set)
		return true
	}
	cur := s.sets[r]
	next := Intersect(cur, set)
	if Equal(next, cur) {
		return false
	}
	s.setAndPropagate(r, next)
	return true
}

// setAndPropagate installs a class set and runs singleton-disequality
// propagation to fixpoint: when a class narrows to {v}, every disequal
// class loses v, visited in name order.
func (s *Store) setAndPropagate(rep int, set Set) {
	work := []int{rep}
	s.sets[rep], s.defined[rep] = set, true
	var buf [16]int
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
		for _, other := range s.sortedPeers(r, buf[:0]) {
			os := s.sets[other]
			if !s.defined[other] || !os.Contains(v) {
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

// sortedPeers appends the slots disequal to rep to out, in name order.
func (s *Store) sortedPeers(rep int, out []int) []int {
	row := s.diseq[rep*s.stride : (rep+1)*s.stride]
	for w, word := range row {
		for ; word != 0; word &= word - 1 {
			out = append(out, w*64+bits.TrailingZeros64(word))
		}
	}
	names := s.names.names
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && names[out[j]] < names[out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (s *Store) isDiseq(a, b int) bool {
	return s.diseq[a*s.stride+b/64]&(1<<(b%64)) != 0
}

func (s *Store) setDiseq(a, b int, on bool) {
	ab, ba := &s.diseq[a*s.stride+b/64], &s.diseq[b*s.stride+a/64]
	if on {
		*ab |= 1 << (b % 64)
		*ba |= 1 << (a % 64)
		return
	}
	*ab &^= 1 << (b % 64)
	*ba &^= 1 << (a % 64)
}

// Equate asserts a == b: merges their classes, intersects their sets, and
// flags contradiction if they were asserted disequal. It reports whether
// the store changed.
func (s *Store) Equate(a, b string) bool {
	ia, ib := s.intern(a), s.intern(b)
	ra, rb := s.find(ia), s.find(ib)
	if ra == rb {
		return false
	}
	if s.isDiseq(ra, rb) {
		s.bad = true
		return true
	}
	// Merge rb into ra.
	s.parent[rb] = int32(ra)
	sb, okB := s.sets[rb], s.defined[rb]
	s.sets[rb], s.defined[rb] = Set{}, false
	// Re-point rb's disequalities at ra.
	row := s.diseq[rb*s.stride : (rb+1)*s.stride]
	for w, word := range row {
		for ; word != 0; word &= word - 1 {
			other := w*64 + bits.TrailingZeros64(word)
			s.setDiseq(rb, other, false)
			if other != ra {
				s.setDiseq(ra, other, true)
			}
		}
	}
	sa, okA := s.sets[ra], s.defined[ra]
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
func (s *Store) Disequate(a, b string) bool {
	ia, ib := s.intern(a), s.intern(b)
	ra, rb := s.find(ia), s.find(ib)
	if ra == rb {
		s.bad = true
		return true
	}
	if s.isDiseq(ra, rb) {
		return false
	}
	s.setDiseq(ra, rb, true)
	if v, ok := s.singletonOf(ra); ok {
		s.pruneValue(rb, v)
	}
	if v, ok := s.singletonOf(rb); ok {
		s.pruneValue(ra, v)
	}
	return true
}

func (s *Store) singletonOf(rep int) (int, bool) {
	if !s.defined[rep] {
		return 0, false
	}
	return s.sets[rep].Singleton()
}

func (s *Store) pruneValue(rep int, v int) {
	set := s.sets[rep]
	if !s.defined[rep] || !set.Contains(v) {
		return
	}
	s.setAndPropagate(rep, set.Remove(v))
}

// Disequal reports whether a and b are asserted (or derived) disequal.
func (s *Store) Disequal(a, b string) bool {
	ia, okA := s.lookup(a)
	ib, okB := s.lookup(b)
	if !okA || !okB {
		return false // a never-seen name is an undefined class with no peers
	}
	ra, rb := s.find(ia), s.find(ib)
	if ra == rb {
		return false
	}
	if s.isDiseq(ra, rb) {
		return true
	}
	sa, sb := s.sets[ra], s.sets[rb]
	return s.defined[ra] && s.defined[rb] && sa.Exact() && sb.Exact() && Intersect(sa, sb).IsEmpty()
}
