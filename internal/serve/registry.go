package serve

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"sync"

	"detcorr/internal/gcl"
	"detcorr/internal/lint"
	"detcorr/internal/verify"
)

// The registry maps program source (by content hash) to its ladder value
// (verify.Program), so every request carrying the same GCL text decides
// against the same *guarded.Program pointer and the same prover and slice
// memos. That identity is what makes the downstream caches compose: the
// explore graph cache and the kernel memo key on the program pointer, so
// two clients POSTing identical sources coalesce into one graph build even
// though each request re-sends the full text. The entry owns everything
// the program retains: evicting it evicts the value's graphs and drops the
// value.

// LoadError reports why a source failed to load. Stage is "parse", "lint",
// or "compile"; all three map to HTTP 422 (the request was understood but
// the program is unprocessable).
type LoadError struct {
	Stage string
	Err   error
}

func (e *LoadError) Error() string { return fmt.Sprintf("%s: %v", e.Stage, e.Err) }
func (e *LoadError) Unwrap() error { return e.Err }

type progEntry struct {
	hash  [sha256.Size]byte
	ready chan struct{} // closed when prog/err are set
	prog  *verify.Program
	err   error
	elem  *list.Element // non-nil while resident in the LRU
}

type registry struct {
	mu      sync.Mutex
	entries map[[sha256.Size]byte]*progEntry
	values  map[*verify.Program]bool // the resident entries' values
	lru     *list.List               // of *progEntry; front = most recently used
	cap     int
}

func newRegistry(capacity int) *registry {
	return &registry{
		entries: map[[sha256.Size]byte]*progEntry{},
		values:  map[*verify.Program]bool{},
		lru:     list.New(),
		cap:     capacity,
	}
}

// load returns the ladder value for src, compiling it at most once per
// resident hash and coalescing concurrent identical loads. Failed loads are
// never cached — the next request retries, mirroring the graph cache's
// no-poisoning rule. Evicting a program beyond the capacity also evicts its
// graphs, and its slices' graphs, from the process-wide exploration cache:
// a program the registry no longer remembers must not pin memory.
func (r *registry) load(src string) (*verify.Program, error) {
	hash := sha256.Sum256([]byte(src))
	for {
		r.mu.Lock()
		if e, found := r.entries[hash]; found {
			if e.elem != nil {
				r.lru.MoveToFront(e.elem)
				r.mu.Unlock()
				return e.prog, nil
			}
			r.mu.Unlock()
			<-e.ready
			if e.err != nil {
				return nil, e.err
			}
			// The builder finished between our check and the wait; go
			// around to take the resident path (and the LRU touch).
			continue
		}
		e := &progEntry{hash: hash, ready: make(chan struct{})}
		r.entries[hash] = e
		r.mu.Unlock()

		file, err := compile(src)
		r.mu.Lock()
		if err != nil {
			delete(r.entries, hash)
		} else {
			e.prog = verify.New(file, nil)
			e.elem = r.lru.PushFront(e)
			r.values[e.prog] = true
			for r.cap > 0 && r.lru.Len() > r.cap {
				back := r.lru.Back()
				if back == nil || back.Value.(*progEntry) == e {
					break
				}
				victim := back.Value.(*progEntry)
				r.lru.Remove(back)
				victim.elem = nil
				delete(r.entries, victim.hash)
				delete(r.values, victim.prog)
				victim.prog.Evict()
			}
		}
		r.mu.Unlock()
		e.err = err
		close(e.ready)
		return e.prog, err
	}
}

// holds reports whether v is a resident entry's value. An evicted value is
// never handed out again: the same source reloads as a new value.
func (r *registry) holds(v *verify.Program) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.values[v]
}

// resident reports the number of programs currently cached.
func (r *registry) resident() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}

// LoadSource compiles GCL source through exactly the pipeline the server
// uses for request bodies: parse, lint (error-severity findings abort with
// a *LoadError), compile. The dctl verdict subcommand calls this — not its
// own loader — so a verdict computed at the command line goes through the
// same gates as one served over HTTP.
func LoadSource(src string) (*gcl.File, error) { return compile(src) }

// compile runs the same pipeline as dctl's loadFile, minus the filesystem:
// parse, lint (error-severity findings abort), compile.
func compile(src string) (*gcl.File, error) {
	ast, err := gcl.Parse(src)
	if err != nil {
		return nil, &LoadError{Stage: "parse", Err: err}
	}
	diags := lint.Analyze("request.gcl", ast, src)
	if err := lint.Errors(diags); err != nil {
		return nil, &LoadError{Stage: "lint", Err: err}
	}
	f, err := gcl.Compile(ast)
	if err != nil {
		return nil, &LoadError{Stage: "compile", Err: err}
	}
	f.Src = src
	return f, nil
}
