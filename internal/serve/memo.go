package serve

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"detcorr/internal/serve/api"
	"detcorr/internal/verify"
)

// verdictCache memoizes whole verdicts keyed by the full request hash. It
// sits above the graph cache: a hit here skips not just the state-space
// build but the check itself. Entries are immutable *api.Response values
// shared between requesters, so handlers must never mutate a response after
// publishing it.
type verdictCache struct {
	mu  sync.Mutex
	max int
	lru *list.List // of *verdictEntry; front = most recently used
	by  map[[sha256.Size]byte]*list.Element
}

type verdictEntry struct {
	key  [sha256.Size]byte
	req  api.Request // the question, kept so revisions can re-key survivors
	resp *api.Response
}

func newVerdictCache(max int) *verdictCache {
	return &verdictCache{max: max, lru: list.New(), by: map[[sha256.Size]byte]*list.Element{}}
}

func (c *verdictCache) get(key [sha256.Size]byte) (*api.Response, bool) {
	if c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.by[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*verdictEntry).resp, true
}

func (c *verdictCache) put(key [sha256.Size]byte, req api.Request, resp *api.Response) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.by[key]; ok {
		c.lru.MoveToFront(el)
		el.Value.(*verdictEntry).resp = resp
		return
	}
	c.by[key] = c.lru.PushFront(&verdictEntry{key: key, req: req, resp: resp})
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.by, back.Value.(*verdictEntry).key)
	}
}

// migrate re-keys every cached verdict about oldSrc that keep approves onto
// the same question about newSrc, leaving the old entries in place (they
// still answer the old source correctly and age out like any other entry).
// It reports how many survived and how many the edit invalidated.
func (c *verdictCache) migrate(oldSrc, newSrc string, keep func(req api.Request, resp *api.Response) bool) (preserved, invalidated int) {
	if c.max <= 0 {
		return 0, 0
	}
	c.mu.Lock()
	var moved []*verdictEntry
	for _, el := range c.by {
		e := el.Value.(*verdictEntry)
		if e.req.Program == oldSrc {
			moved = append(moved, e)
		}
	}
	c.mu.Unlock()
	for _, e := range moved {
		if !keep(e.req, e.resp) {
			invalidated++
			continue
		}
		req := e.req
		req.Program = newSrc
		c.put(requestKey(req), req, e.resp)
		preserved++
	}
	return preserved, invalidated
}

// tenantState is one tenant's view of the graph cache: the programs their
// requests have touched, most recent first.
type tenantState struct {
	lru *list.List // of *verify.Program; front = most recently used
	by  map[*verify.Program]*list.Element
}

// chargeTenant records that tenant's latest verdict used prog, then
// enforces the per-tenant budget: while the states resident for the
// tenant's programs exceed it, the tenant's least-recently-used programs
// are evicted from the exploration cache. The program just used is never
// the victim — a tenant whose single working set exceeds the budget keeps
// exactly that working set, and merely loses the benefit of history.
//
// Because graphs are shared across tenants, a build for one tenant can
// re-inflate the resident count of every other tenant holding the same
// program — after *their* last charge. Enforcing only the charging
// tenant would therefore leave quiescent tenants over budget. Instead
// every charge re-enforces every tenant: the final charge necessarily
// happens after the final build, so at quiescence all tenants are within
// budget (or down to the one protected program).
func (s *Server) chargeTenant(tenant string, prog *verify.Program) {
	if s.cfg.TenantBudget <= 0 || prog == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[tenant]
	if t == nil {
		t = &tenantState{lru: list.New(), by: map[*verify.Program]*list.Element{}}
		s.tenants[tenant] = t
	}
	if el, ok := t.by[prog]; ok {
		t.lru.MoveToFront(el)
	} else {
		t.by[prog] = t.lru.PushFront(prog)
	}
	for _, ts := range s.tenants {
		s.enforceLocked(ts, prog)
	}
}

// enforceLocked evicts t's least-recently-used programs from the
// exploration cache until the tenant's resident states fit the budget,
// sparing the protected (just-used) program so a fresh build is never
// discarded by its own completion. Programs the registry has evicted are
// forgotten first: their graphs are gone and they are never charged
// again, so keeping them would only pin their values. Caller holds s.mu.
func (s *Server) enforceLocked(t *tenantState, protect *verify.Program) {
	for el := t.lru.Front(); el != nil; {
		next := el.Next()
		if v := el.Value.(*verify.Program); v != protect && !s.programs.holds(v) {
			t.lru.Remove(el)
			delete(t.by, v)
		}
		el = next
	}
	usage := 0
	for el := t.lru.Front(); el != nil; el = el.Next() {
		usage += el.Value.(*verify.Program).Resident()
	}
	for usage > s.cfg.TenantBudget && t.lru.Len() > 1 {
		el := t.lru.Back()
		if el.Value.(*verify.Program) == protect {
			el = el.Prev()
		}
		if el == nil {
			break
		}
		victim := el.Value.(*verify.Program)
		usage -= victim.Evict()
		t.lru.Remove(el)
		delete(t.by, victim)
		s.met.tenantEvictions.Add(1)
	}
}
