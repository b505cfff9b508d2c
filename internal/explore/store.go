package explore

// The storage layer every exploration runs on: the visited set, the FIFO
// frontiers, the engine's outboxes and FindDeadlock's parent log. Build,
// Scan and FindDeadlock each open one store and take every structure from
// it, so each has a single code path whether it runs in RAM or under a
// memory budget.

import (
	"fmt"
	"os"
)

// bfsStore backs one exploration. Without a budget everything lives in RAM
// and no spill directory is created; under a budget (resolveSpill) every
// structure spills past its share of the budget into a private scratch
// directory. finish (idempotent) folds the spilled structures' counters
// into SpillCounters and removes the directory with every run and shard
// file in it.
type bfsStore struct {
	budget    int64  // 0 in RAM
	dir       string // "" in RAM
	finishers []func()
}

// openStore resolves memBudget and dir against the process defaults and
// opens the store: in RAM, or spilled under a private subdirectory of dir.
func openStore(memBudget int64, dir string) (*bfsStore, error) {
	budget, parent := resolveSpill(memBudget, dir)
	if budget == 0 {
		return &bfsStore{}, nil
	}
	if parent == "" {
		parent = os.TempDir()
	} else if err := os.MkdirAll(parent, 0o777); err != nil {
		return nil, fmt.Errorf("explore: spill dir: %w", err)
	}
	sub, err := os.MkdirTemp(parent, "dcspill-")
	if err != nil {
		return nil, fmt.Errorf("explore: spill dir: %w", err)
	}
	return &bfsStore{budget: budget, dir: sub}, nil
}

func (s *bfsStore) spilled() bool { return s.dir != "" }

func (s *bfsStore) finish() {
	for _, f := range s.finishers {
		f()
	}
	s.finishers = nil
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}

// visitedShare is the portion of the budget reserved for the visited set;
// the rest buffers the frontiers, outboxes and parent log.
func (s *bfsStore) visitedShare() int64 { return s.budget / 2 }

// ownedClaims builds one claim function per worker, each for the partitions
// that worker owns; a claim reports true exactly once per index. The dense
// mode shares one bitset, but a worker only ever touches the 64-aligned
// words of its own partitions, so plain bit operations are race-free. In
// RAM the bitset covers spaces of up to denseVisitedLimit states and larger
// ones fall back to one map per owner. Under a budget the bitset is used
// when it fits the visited share; otherwise each worker gets its own
// sharded instance whose Bloom fronts and shard files materialize lazily
// for just the partitions it claims into. Only spilled claims count into
// SpillCounters.
func (s *bfsStore) ownedClaims(pt spillPartitioner, workers int, total uint64) []func(uint64) (bool, error) {
	claims := make([]func(uint64) (bool, error), workers)
	dense := total <= denseVisitedLimit
	if s.spilled() {
		dense = int64((total+7)/8) <= s.visitedShare()
	}
	switch {
	case dense:
		words := make([]uint64, (total+63)/64)
		claim := func(idx uint64) (bool, error) {
			word := &words[idx>>6]
			bit := uint64(1) << (idx & 63)
			if *word&bit != 0 {
				return false, nil
			}
			*word |= bit
			return true, nil
		}
		for w := range claims {
			if !s.spilled() {
				claims[w] = claim
				continue
			}
			hits := new(int64)
			claims[w] = func(idx uint64) (bool, error) {
				*hits++
				return claim(idx)
			}
			s.finishers = append(s.finishers, func() { spillFrontHits.Add(*hits) })
		}
	case !s.spilled():
		for w := range claims {
			seen := make(map[uint64]struct{})
			claims[w] = func(idx uint64) (bool, error) {
				if _, ok := seen[idx]; ok {
					return false, nil
				}
				seen[idx] = struct{}{}
				return true, nil
			}
		}
	default:
		// Each instance is sized for the full visited share but only its
		// owned partitions (1/workers of them) allocate, so the shares add
		// up to the budget's visited half across the pool.
		for w := range claims {
			inst := newShardedVisited(s.dir, pt, s.visitedShare())
			claims[w] = inst.claim
			s.finishers = append(s.finishers, inst.finish)
		}
	}
	return claims
}

// denseVisitedLimit bounds the in-RAM dense visited set: state spaces with
// at most this many states are deduplicated with a flat bitset (32 MiB at
// the limit); larger spaces fall back to hash maps. A variable so tests can
// force the map path on small schemas.
var denseVisitedLimit = uint64(1) << 28

// frontier is a FIFO queue of state indices. Both implementations keep two
// levels — the one being consumed and the one being discovered — and swap
// them when the first runs dry, so they pop in exactly the same order.
type frontier interface {
	push(idx uint64) error
	// pop yields the next index in FIFO order; ok=false means the frontier
	// is drained.
	pop() (idx uint64, ok bool, err error)
	// queued counts the indices pushed and not yet popped.
	queued() int64
	close()
}

// newFrontier returns a frontier that spills each level past bufBytes of
// buffer under a budget.
func (s *bfsStore) newFrontier(bufBytes int) frontier {
	if s.spilled() {
		return newSpillFrontier(s.dir, bufBytes)
	}
	return &ramFrontier{}
}

// ramFrontier is the in-RAM frontier: two slices of indices.
type ramFrontier struct {
	read, write []uint64
	head        int // next index of read to pop
}

func (f *ramFrontier) push(idx uint64) error {
	f.write = append(f.write, idx)
	return nil
}

func (f *ramFrontier) pop() (uint64, bool, error) {
	if f.head == len(f.read) {
		if len(f.write) == 0 {
			return 0, false, nil
		}
		f.read, f.write, f.head = f.write, f.read[:0], 0
	}
	f.head++
	return f.read[f.head-1], true, nil
}

func (f *ramFrontier) queued() int64 { return int64(len(f.read) - f.head + len(f.write)) }

func (f *ramFrontier) close() {}

// outbox buffers successor indices routed from one worker to the owner of
// their partition. One outbox exists per (sender, receiver) pair, so
// senders never contend.
type outbox interface {
	push(idx uint64) error
	// drain yields the pushed indices in push order until fn returns false,
	// then empties the outbox for the next round.
	drain(fn func(idx uint64) bool) error
	close()
}

// newOutbox returns an outbox that spills past bufBytes under a budget.
func (s *bfsStore) newOutbox(bufBytes int) outbox {
	if s.spilled() {
		return &spillOutbox{w: newRunWriter(s.dir, "outbox", 8, bufBytes)}
	}
	return &ramOutbox{}
}

type ramOutbox struct{ idxs []uint64 }

func (o *ramOutbox) push(idx uint64) error {
	o.idxs = append(o.idxs, idx)
	return nil
}

func (o *ramOutbox) drain(fn func(idx uint64) bool) error {
	for _, idx := range o.idxs {
		if !fn(idx) {
			break
		}
	}
	o.idxs = o.idxs[:0]
	return nil
}

func (o *ramOutbox) close() {}

// spillOutbox is an outbox over a run file.
type spillOutbox struct {
	w   *runWriter
	rec [8]byte
}

func (o *spillOutbox) push(idx uint64) error {
	putUint64(&o.rec, idx)
	return o.w.push(o.rec[:])
}

func (o *spillOutbox) drain(fn func(idx uint64) bool) error {
	r, err := o.w.reader()
	if err != nil {
		return err
	}
	for {
		rec, ok, err := r.next()
		if err != nil {
			return err
		}
		if !ok || !fn(leUint64(rec)) {
			break
		}
	}
	o.w.reset()
	return nil
}

func (o *spillOutbox) close() { o.w.remove() }

// newParentLog returns FindDeadlock's parent log: in RAM its buffer grows
// instead of flushing, under a budget it spills past bufBytes.
func (s *bfsStore) newParentLog(bufBytes int) *parentLog {
	if s.spilled() {
		return newParentLog(s.dir, bufBytes)
	}
	return &parentLog{w: &runWriter{name: "parents", recSize: 16, grow: true}}
}

//dc:zeroalloc
func putUint64(dst *[8]byte, v uint64) {
	dst[0] = byte(v)
	dst[1] = byte(v >> 8)
	dst[2] = byte(v >> 16)
	dst[3] = byte(v >> 24)
	dst[4] = byte(v >> 32)
	dst[5] = byte(v >> 40)
	dst[6] = byte(v >> 48)
	dst[7] = byte(v >> 56)
}

//dc:zeroalloc
func leUint64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
