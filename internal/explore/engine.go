package explore

// The exploration engine and the assembly of the Graph it returns: assemble
// fills the CSR arenas, so this file is a sanctioned builder.
//
//dc:mutates Graph

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// defaultParallelism is the worker count Build uses when Options.Parallelism
// is zero. Zero (the initial value) means one worker; dctl -j, dcbench -j,
// and the benchmarks raise it process-wide so that every graph construction
// in core, fault, spec, and experiments inherits it without threading a
// parameter through each call site.
var defaultParallelism atomic.Int32

// SetDefaultParallelism sets the worker count used by Build calls whose
// Options.Parallelism is zero, returning the previous value (so callers can
// restore it). Values below 1 reset the default to one worker.
func SetDefaultParallelism(n int) int {
	if n < 1 {
		n = 0
	}
	return int(defaultParallelism.Swap(int32(n)))
}

// DefaultParallelism returns the current process-wide default worker count;
// 0 means one worker.
func DefaultParallelism() int { return int(defaultParallelism.Load()) }

// AutoParallelism is the worker count "use every core" CLI flags resolve to.
func AutoParallelism() int { return runtime.NumCPU() }

// workers resolves the effective worker count for a Build call. A worker
// count inherited from the process default degrades to one worker on a
// single-P runtime: the pool cannot overlap work there, so it only adds
// routing, barrier and scheduling overhead. Explicit Parallelism values are
// honored as written — tests and benchmarks exercise the pool deliberately.
func (o Options) workers() int {
	n := o.Parallelism
	if n == 0 {
		n = DefaultParallelism()
		if n > 1 && runtime.GOMAXPROCS(0) == 1 {
			n = 1
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// rawNode is one discovered state before canonical renumbering: its
// mixed-radix index and the span of its outgoing transitions inside one
// chunk of the owning expansion's edge arena. States are not materialized
// during exploration at all — the kernel works on indices, and assemble
// decodes the final sorted arena once.
type rawNode struct {
	idx   uint64
	chunk uint32 // edge chunk holding the out-edges
	off   uint32 // first out-edge within the chunk
	n     int32  // out-degree
}

// edgeChunk is the size, in transitions, past which an expansion starts a
// new edge chunk instead of re-growing the current one (1 MiB of Succs).
// The first chunk grows by append, so a small graph never pays for a
// chunk it does not fill.
const edgeChunk = 1 << 16

// expansion is one worker's discovery arena: nodes plus successor chunks
// that the kernel appends into, so expanding a state allocates nothing of
// its own. A node's edges never straddle two chunks.
type expansion struct {
	nodes  []rawNode
	chunks [][]guarded.Succ
}

// expand appends the transitions of idx to the current chunk, starting a
// new one once the current chunk holds edgeChunk transitions, and records
// the node.
func (ex *expansion) expand(sc *guarded.Scratch, idx uint64) []guarded.Succ {
	last := len(ex.chunks) - 1
	if last < 0 || len(ex.chunks[last]) >= edgeChunk {
		var next []guarded.Succ
		if last >= 0 {
			next = make([]guarded.Succ, 0, edgeChunk+edgeChunk/8)
		}
		ex.chunks = append(ex.chunks, next)
		last++
	}
	off := len(ex.chunks[last])
	ex.chunks[last] = sc.Transitions(idx, ex.chunks[last])
	succ := ex.chunks[last][off:]
	ex.nodes = append(ex.nodes, rawNode{idx: idx, chunk: uint32(last), off: uint32(off), n: int32(len(succ))})
	return succ
}

// out returns the out-edges of the expansion's node.
func (ex *expansion) out(node *rawNode) []guarded.Succ {
	return ex.chunks[node.chunk][node.off : node.off+uint32(node.n)]
}

func boundError(maxStates int) error {
	return fmt.Errorf("%w: more than %d states", ErrStateBound, maxStates)
}

// scanInit calls fn(idx) for every index in [lo, hi) whose state satisfies
// init, walking the mixed-radix odometer incrementally over a reusable row
// (no per-state allocation). A predicate with a Row form (GCL bytecode) is
// tested on the row itself, others on a view of it. It stops early,
// reporting false, when fn does.
//
//dc:zeroalloc
func scanInit(sch *state.Schema, init state.Predicate, lo, hi uint64, row []int32, fn func(idx uint64) bool) bool {
	if lo >= hi {
		return true
	}
	sch.DecodeInto(row, lo)
	view := sch.ViewState(row)
	nv := len(row)
	for idx := lo; ; {
		var holds bool
		if init.Row != nil {
			holds = init.Row(row)
		} else {
			holds = init.Holds(view)
		}
		if holds && !fn(idx) {
			return false
		}
		idx++
		if idx >= hi {
			return true
		}
		for i := nv - 1; i >= 0; i-- {
			row[i]++
			if int(row[i]) < sch.DomainSize(i) {
				break
			}
			row[i] = 0
		}
	}
}

// cancelPollMask sets how often explorations poll their context: once per
// (cancelPollMask+1) expanded or scanned states. Each expansion does real
// kernel work, so a few hundred states bounds the cancellation latency to
// microseconds without a per-state Err call on the hot path.
const cancelPollMask = 255

// exploreBFS is the exploration engine behind every Build: a
// round-synchronous BFS in which worker w exclusively owns every visited-set
// partition p with p mod W == w — its slice of the visited set, its own FIFO
// frontier, and the expansion arena of every state it claims. Successors
// that land in a foreign partition are routed through per-(sender,receiver)
// outboxes and claimed by their owner after a barrier; successors that land
// in an owned partition are claimed immediately and expanded in the same
// round. No visited word is ever touched by two workers (partitions are
// 64-aligned blocks), so claims are plain loads and stores: no atomics and
// no lock contention. The store decides whether those structures live in
// RAM or spill to disk under a memory budget; the engine is the same.
//
// With one worker every phase runs inline on the calling goroutine, and the
// whole BFS is a single round: no pool, no barrier, no outbox.
//
// The discovered state and transition sets are schedule-independent (the
// kernel is a pure function of the index and every state is expanded
// exactly once, by its owner), so after assemble()'s canonical renumbering
// the Graph is byte-identical at any worker count, in RAM or spilled. The
// MaxStates bound is exact: the run fails iff the number of distinct
// discovered states exceeds it. The context is polled directly every
// cancelPollMask+1 seeded, expanded or routed states and once more before
// returning, so a cancelled build never yields a graph, however small.
func exploreBFS(ctx context.Context, k *guarded.Kernel, init state.Predicate, maxStates, workers int, st *bfsStore) ([]expansion, error) {
	sch := k.Schema()
	total, _ := sch.NumStates()
	workers = min(max(workers, 1), defaultSpillPartitions)
	pt := newSpillPartitioner(total, defaultSpillPartitions)
	claims := st.ownedClaims(pt, workers, total)

	var (
		count    atomic.Int64
		stop     atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	// fail records the first error — the state bound, a spill I/O failure —
	// and stops the pool; workers wind down within a poll interval.
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	// halted reports whether the run must wind down, polling the context
	// itself: a cancellation stops every worker at its next poll.
	halted := func() bool {
		if stop.Load() {
			return true
		}
		if ctx.Err() != nil {
			stop.Store(true)
			return true
		}
		return false
	}

	// A quarter of a budget buffers the frontiers (two run-file sides
	// each), another quarter the outboxes; the visited set takes the rest.
	frontiers := make([]frontier, workers)
	for w := range frontiers {
		frontiers[w] = st.newFrontier(int(st.budget / 8 / int64(workers)))
	}
	var outboxes [][]outbox // [sender][receiver]; none with one worker
	if workers > 1 {
		outboxes = make([][]outbox, workers)
		for s := range outboxes {
			outboxes[s] = make([]outbox, workers)
			for r := range outboxes[s] {
				outboxes[s][r] = st.newOutbox(int(st.budget / 4 / int64(workers*workers)))
			}
		}
	}
	defer func() {
		for w := range frontiers {
			frontiers[w].close()
			for _, ob := range outboxes {
				ob[w].close()
			}
		}
	}()

	// claim dedups idx on worker w's visited slice (w must own idx) and
	// enqueues fresh states, enforcing the exact MaxStates bound.
	claim := func(w int, idx uint64) error {
		fresh, err := claims[w](idx)
		if err != nil || !fresh {
			return err
		}
		if maxStates > 0 && count.Add(1) > int64(maxStates) {
			return boundError(maxStates)
		}
		return frontiers[w].push(idx)
	}

	// Phase 1: each worker scans its own partitions' index blocks for
	// initial states — ownership makes routing unnecessary here.
	forEachWorker(workers, func(w int) {
		row := make([]int32, sch.NumVars())
		tick := 0
		seed := func(idx uint64) bool {
			if tick&cancelPollMask == 0 && halted() {
				return false
			}
			tick++
			if err := claim(w, idx); err != nil {
				fail(err)
				return false
			}
			return true
		}
		for lo := uint64(0); lo < total; lo += pt.block {
			if pt.part(lo)%workers == w && !scanInit(sch, init, lo, min(lo+pt.block, total), row, seed) {
				return
			}
		}
	})

	// Phase 2: round-synchronous expansion with ownership routing. Each
	// round: (a) every worker drains its own frontier to empty, expanding on
	// its kernel scratch, claiming owned successors directly (they extend
	// the same drain) and routing foreign ones to the owner's outbox;
	// (b) barrier; (c) every owner drains its inboxes, claiming and
	// enqueueing for the next round. The barrier is what lets step (c) run
	// without locks: all sends into a round's outboxes happen before any
	// owner reads them, and the emptied outboxes are handed back to the
	// senders by the next barrier.
	//
	// Every seed is expanded exactly once, by its owner, so each node list
	// starts with room for its worker's seeds: a build from true never
	// regrows it.
	perWorker := make([]expansion, workers)
	scratches := make([]*guarded.Scratch, workers)
	for w := range scratches {
		perWorker[w].nodes = make([]rawNode, 0, frontiers[w].queued())
		scratches[w] = k.NewScratch()
	}
	expand := func(w int) {
		ex, sc, fr := &perWorker[w], scratches[w], frontiers[w]
		for steps := 0; ; steps++ {
			if steps&cancelPollMask == 0 && halted() {
				return
			}
			idx, ok, err := fr.pop()
			if err != nil {
				fail(err)
				return
			}
			if !ok {
				return
			}
			for _, tr := range ex.expand(sc, idx) {
				if workers == 1 {
					err = claim(0, tr.To)
				} else if o := pt.part(tr.To) % workers; o == w {
					err = claim(w, tr.To)
				} else {
					err = outboxes[w][o].push(tr.To)
				}
				if err != nil {
					fail(err)
					return
				}
			}
		}
	}
	route := func(w int) {
		steps := 0
		deliver := func(idx uint64) bool {
			if steps&cancelPollMask == 0 && halted() {
				return false
			}
			steps++
			if err := claim(w, idx); err != nil {
				fail(err)
				return false
			}
			return true
		}
		for s := 0; s < workers && !stop.Load(); s++ {
			if err := outboxes[s][w].drain(deliver); err != nil {
				fail(err)
			}
		}
	}
	for !halted() && queued(frontiers) > 0 {
		forEachWorker(workers, expand)
		if workers > 1 && !halted() {
			forEachWorker(workers, route)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return perWorker, nil
}

// forEachWorker runs fn for every worker and returns when all have: inline
// on the calling goroutine with one worker, else one goroutine each.
func forEachWorker(workers int, fn func(w int)) {
	if workers == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// queued sums the states waiting in the frontiers.
func queued(frontiers []frontier) int64 {
	n := int64(0)
	for _, f := range frontiers {
		n += f.queued()
	}
	return n
}

// nodeRef locates one discovered node inside the workers' expansions during
// canonical renumbering.
type nodeRef struct {
	idx uint64
	ch  uint32 // expansion
	pos uint32 // position inside the expansion's node list
}

// assemble renumbers the discovered states canonically — node ids ascend
// with the states' mixed-radix indices — decodes the state arena, resolves
// edge targets by binary search over the sorted index array, and precomputes
// the per-action enabled bitsets (read off the edges as they are written)
// and the deadlock set. The result is byte-for-byte identical for any
// worker count, budget and schedule.
func assemble(k *guarded.Kernel, fair []bool, exps []expansion) *Graph {
	sch := k.Schema()
	n, totalE := 0, 0
	for i := range exps {
		n += len(exps[i].nodes)
		for _, c := range exps[i].chunks {
			totalE += len(c)
		}
	}
	refs := make([]nodeRef, 0, n)
	for ci := range exps {
		for pi := range exps[ci].nodes {
			refs = append(refs, nodeRef{idx: exps[ci].nodes[pi].idx, ch: uint32(ci), pos: uint32(pi)})
		}
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].idx < refs[j].idx })

	nv := sch.NumVars()
	g := &Graph{
		prog:    k.Program(),
		schema:  sch,
		nv:      nv,
		n:       n,
		vals:    make([]int32, n*nv),
		idxs:    make([]uint64, n),
		in:      new(inCSR),
		fair:    fair,
		numActs: k.NumActions(),
		memo:    newGraphMemo(),
	}
	for i := range refs {
		g.idxs[i] = refs[i].idx
		sch.DecodeInto(g.vals[i*nv:(i+1)*nv], refs[i].idx)
	}
	// Edge targets resolve index→id once per edge. When the state space is
	// not much larger than the explored graph, a direct lookup table (4
	// bytes per schema state) beats the per-edge binary search.
	total, _ := sch.NumStates()
	var lut []uint32
	if total <= 16*uint64(n)+(1<<16) {
		lut = make([]uint32, total)
		for i, idx := range g.idxs {
			lut[idx] = uint32(i)
		}
	}
	resolve := func(idx uint64) int {
		if lut != nil {
			if id := int(lut[idx]); g.idxs[id] == idx {
				return id
			}
		} else if id, ok := g.idOf(idx); ok {
			return id
		}
		panic(fmt.Sprintf("explore: edge target %d not among discovered states", idx))
	}
	// Out-edge CSR: degree prefix sums, then resolve targets id-by-id.
	g.outOff = make([]uint32, n+1)
	for i := range refs {
		node := &exps[refs[i].ch].nodes[refs[i].pos]
		g.outOff[i+1] = g.outOff[i] + uint32(node.n)
	}
	g.outEdges = make([]Edge, totalE)
	g.enabled = make([]*Bitset, g.numActs)
	for a := range g.enabled {
		g.enabled[a] = NewBitset(n)
	}
	en := newEnabledness(k)
	for i := range refs {
		ex := &exps[refs[i].ch]
		succ := ex.out(&ex.nodes[refs[i].pos])
		base := int(g.outOff[i])
		for j, tr := range succ {
			g.outEdges[base+j] = Edge{Action: int(tr.Action), To: resolve(tr.To)}
		}
		en.mark(g.enabled, i, g.vals[i*nv:(i+1)*nv], g.outEdges[base:base+len(succ)])
	}
	g.dead = g.computeDead(fair)
	return g
}

// enabledness fills per-action enabled bitsets from a node's out-edges. An
// action with a fixed fan-out (guarded.Kernel.Fanout > 0: every native
// action and every deterministic closure) has transitions exactly where
// its guard holds, so its bit is read off the edges, once per run of
// same-action edges. Only a closure with a set of next states can be
// enabled and emit nothing, so its guard is evaluated at every node.
type enabledness struct {
	sc        *guarded.Scratch
	setValued []int // actions whose guard is evaluated
}

func newEnabledness(k *guarded.Kernel) *enabledness {
	en := &enabledness{sc: k.NewScratch()}
	for a := 0; a < k.NumActions(); a++ {
		if k.Fanout(a) <= 0 {
			en.setValued = append(en.setValued, a)
		}
	}
	return en
}

// mark sets node id's bits: from out, its out-edges in action order, and
// by evaluating the set-valued closures' guards on row, its state.
func (en *enabledness) mark(enabled []*Bitset, id int, row []int32, out []Edge) {
	prev := -1
	for _, e := range out {
		if e.Action != prev {
			prev = e.Action
			enabled[prev].Add(id)
		}
	}
	for _, a := range en.setValued {
		if en.sc.EnabledOnRow(row, a) {
			enabled[a].Add(id)
		}
	}
}

// computeDead derives the deadlock set from the per-action enabled bitsets
// under the given fairness mask: a node is deadlocked iff no fair action is
// enabled there.
func (g *Graph) computeDead(fair []bool) *Bitset {
	dead := NewBitset(g.n)
	dead.Fill()
	for a, f := range fair {
		if f {
			dead.IntersectNot(g.enabled[a])
		}
	}
	return dead
}
