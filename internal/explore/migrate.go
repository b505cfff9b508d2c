package explore

import (
	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// MigrateStats reports what MigrateProgram did with the old revision's
// cached graphs.
type MigrateStats struct {
	// Rebound graphs were shared outright (identity edit).
	Rebound int
	// Repaired graphs went through edge-scoped Repair.
	Repaired int
	// Dropped graphs were evicted: init extension changed, a bound key
	// repair does not cover, a failed repair, or no plan at all. Later
	// requests rebuild them on demand.
	Dropped int
}

// MigrateProgram moves every cached graph of oldProg to newProg, repairing
// instead of rebuilding wherever the plan allows. resolve maps an init
// predicate's cache-key name to the predicate, reporting false when the
// predicate's extension may differ between the revisions (then the graph is
// dropped — its node set is stale). A nil plan drops everything, which is
// the correct degraded behavior for edits repair cannot model (variable
// changes).
//
// A migrated graph with the old node set (a rebind, or a repair that
// neither discovered nor dropped a state) also keeps the old graph's
// memoized predicate sets for "true" and every name resolve approves: the
// same states and the same extension give the same set. Nothing else in
// the memo carries over — reachability, components and liveness depend on
// the edges.
//
// Old entries are detached first under the cache lock; repairs run outside
// it so concurrent Shared callers are never blocked on graph surgery. If a
// fresh build for the new key races the migration and lands first, the
// migrated graph is discarded — the built one is identical by the repair
// contract, and first-in wins.
func MigrateProgram(oldProg, newProg *guarded.Program, plan *RepairPlan, resolve func(initName string) (state.Predicate, bool)) MigrateStats {
	var st MigrateStats
	if oldProg == nil || newProg == nil || oldProg == newProg {
		return st
	}
	// Detach the old revision's resident entries. In-flight builds keyed on
	// oldProg complete and cache under the old key; they are stale-by-key,
	// not stale-by-content, and age out of the LRU like any unused entry.
	cache.mu.Lock()
	var moved []*cacheEntry
	for key, e := range cache.entries {
		if key.prog == oldProg && e.elem != nil {
			cache.lru.Remove(e.elem)
			e.elem = nil
			cache.states -= e.g.NumNodes()
			delete(cache.entries, key)
			moved = append(moved, e)
		}
	}
	cache.mu.Unlock()

	identity := plan.Identity()
	for _, e := range moved {
		// The mask the new graph is built and keyed under: the old key's,
		// position by position, over the new action count.
		fair := fairFromKey(e.key.fair, newProg.NumActions())
		init, initSame := resolve(e.key.init)
		var ng *Graph
		rebound := false
		switch {
		case plan == nil || !initSame:
			// No plan, or an init whose extension may have changed (a
			// predicate-only edit is an identity plan): nothing survives.
		case identity:
			// Identity edits rebind any key whose init is unchanged — the
			// graph, including its fairness mask and (trivially satisfied)
			// bound, is unchanged.
			ng = e.g.rebind(sharedKernel(newProg), e.g.fair)
			rebound = true
		case e.key.max != 0:
			// Bounded graphs are outside Repair's scope; rebuild on demand.
		default:
			g, err := Repair(e.g, newProg, plan, init, Options{Fair: fair})
			if err == nil {
				ng = g
			}
		}
		if ng == nil {
			st.Dropped++
			continue
		}
		ng.carrySets(e.g, func(name string) bool {
			if name == state.True.String() {
				return true
			}
			_, ok := resolve(name)
			return ok
		})
		if !insertMigrated(cacheKey{prog: newProg, init: e.key.init, fair: fairKeyOf(fair), max: e.key.max}, ng) {
			st.Dropped++
			continue
		}
		if rebound {
			st.Rebound++
		} else {
			st.Repaired++
		}
	}
	return st
}

// fairFromKey reconstructs a fairness mask from its cache-key encoding
// ("" = all fair) over numActs actions: actions past the key's length are
// unfair.
func fairFromKey(key string, numActs int) []bool {
	if key == "" {
		return nil
	}
	fair := make([]bool, numActs)
	for i := range fair {
		fair[i] = i < len(key) && key[i] == '1'
	}
	return fair
}

// insertMigrated inserts a migrated graph as a ready resident entry,
// reporting false when it was not retained (a racing build already holds
// the key, or the graph exceeds the budget outright).
func insertMigrated(key cacheKey, g *Graph) bool {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if _, exists := cache.entries[key]; exists {
		return false
	}
	if g.NumNodes() > cache.budget {
		return false
	}
	ready := make(chan struct{})
	close(ready)
	e := &cacheEntry{key: key, ready: ready, g: g}
	e.elem = cache.lru.PushFront(e)
	cache.entries[key] = e
	cache.states += g.NumNodes()
	cache.evictLocked(e)
	return true
}
