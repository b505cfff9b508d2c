package absdom

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestStoreMatchesReference drives the slice-backed Store and the
// map-backed reference through the same random Define, Narrow, Equate,
// Disequate and Clone sequences and requires them to agree after every
// step on each operation's result, Rep, SetOf, Disequal and Contradictory
// for every name, including names interned only by a sibling clone and a
// name neither ever saw. Names are interned in an order unrelated to their
// sort order, so the name-ordered peer visits are exercised, and
// contradictions are common, so what propagation leaves behind when it
// stops early is compared too.
func TestStoreMatchesReference(t *testing.T) {
	names := []string{"q", "b", "x'3", "a", "x", "m", "c"}
	const unseen = "never"
	randSet := func(rng *rand.Rand) Set {
		switch rng.Intn(6) {
		case 0:
			return SingleSet(rng.Intn(4))
		case 1:
			return FullSet(rng.Intn(3), 2+rng.Intn(3))
		case 2:
			return FullSet(0, 100) // wider than 64 values: an interval
		case 3:
			return FullSet(0, 3).Remove(rng.Intn(4)).Remove(rng.Intn(4))
		default:
			return FullSet(0, 3)
		}
	}
	type pair struct {
		s   *Store
		ref *refStore
	}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live := []pair{{NewStore(), newRefStore()}}
		for step := 0; step < 60; step++ {
			k := rng.Intn(len(live))
			p := live[k]
			a, b := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			var op string
			var got, want bool
			switch rng.Intn(10) {
			case 0, 1:
				set := randSet(rng)
				op = fmt.Sprintf("Define(%s, %v)", a, set)
				p.s.Define(a, set)
				p.ref.Define(a, set)
			case 2, 3:
				set := randSet(rng)
				op = fmt.Sprintf("Narrow(%s, %v)", a, set)
				got, want = p.s.Narrow(a, set), p.ref.Narrow(a, set)
			case 4, 5:
				op = fmt.Sprintf("Equate(%s, %s)", a, b)
				got, want = p.s.Equate(a, b), p.ref.Equate(a, b)
			case 6, 7, 8:
				op = fmt.Sprintf("Disequate(%s, %s)", a, b)
				got, want = p.s.Disequate(a, b), p.ref.Disequate(a, b)
			default:
				op = "Clone"
				live = append(live, pair{p.s.Clone(), p.ref.Clone()})
				if len(live) > 4 {
					live = live[1:]
				}
			}
			if got != want {
				t.Fatalf("seed %d step %d: %s = %v, reference %v", seed, step, op, got, want)
			}
			for _, q := range live {
				if err := storesAgree(q.s, q.ref, append(names, unseen)); err != nil {
					t.Fatalf("seed %d step %d after %s: %v", seed, step, op, err)
				}
			}
		}
	}
}

func storesAgree(s *Store, ref *refStore, names []string) error {
	if s.Contradictory() != ref.Contradictory() {
		return fmt.Errorf("Contradictory = %v, reference %v", s.Contradictory(), ref.Contradictory())
	}
	for _, a := range names {
		if got, want := s.Rep(a), ref.Rep(a); got != want {
			return fmt.Errorf("Rep(%s) = %s, reference %s", a, got, want)
		}
		gs, gok := s.SetOf(a)
		ws, wok := ref.SetOf(a)
		if gs != ws || gok != wok {
			return fmt.Errorf("SetOf(%s) = %v %v, reference %v %v", a, gs, gok, ws, wok)
		}
		for _, b := range names {
			if got, want := s.Disequal(a, b), ref.Disequal(a, b); got != want {
				return fmt.Errorf("Disequal(%s, %s) = %v, reference %v", a, b, got, want)
			}
		}
	}
	return nil
}
