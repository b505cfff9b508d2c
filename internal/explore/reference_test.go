package explore

import (
	"context"
	"fmt"

	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// The reference engine: the sequential depth-first explorer that built every
// graph before the partition-owned BFS (exploreBFS) became the only engine,
// kept verbatim as the oracle of the engine tests. Discovery order differs
// from exploreBFS's, but assemble's canonical renumbering makes the graphs
// comparable byte for byte.

// buildReference is BuildCtx on the reference engine.
func buildReference(p *guarded.Program, init state.Predicate, opts Options) (*Graph, error) {
	if err := p.Schema().Indexable(); err != nil {
		return nil, err
	}
	fair := opts.Fair
	if fair == nil {
		fair = make([]bool, p.NumActions())
		for i := range fair {
			fair[i] = true
		}
	}
	if len(fair) != p.NumActions() {
		return nil, fmt.Errorf("explore: fairness mask has %d entries for %d actions", len(fair), p.NumActions())
	}
	k := guarded.Compile(p)
	exps, err := exploreSeq(context.Background(), k, init, opts.MaxStates)
	if err != nil {
		return nil, err
	}
	return assemble(k, append([]bool(nil), fair...), exps), nil
}

// visitedSet is the reference engine's deduplication: claim returns true
// exactly once per index.
type visitedSet map[uint64]struct{}

func newVisitedSet(uint64) visitedSet { return visitedSet{} }

func (v visitedSet) claim(idx uint64) bool {
	if _, ok := v[idx]; ok {
		return false
	}
	v[idx] = struct{}{}
	return true
}

// exploreSeq is the sequential engine: a scan of the state space for initial
// states followed by a depth-first expansion on the compiled kernel. The
// MaxStates bound is exact: it fails if and only if the number of distinct
// discovered states would exceed the bound, before any extra state or edge
// is recorded. Cancellation is polled every cancelPollMask+1 expansions and
// every cancelPollMask+1 initial-state candidates.
func exploreSeq(ctx context.Context, k *guarded.Kernel, init state.Predicate, maxStates int) ([]expansion, error) {
	sch := k.Schema()
	total, _ := sch.NumStates()
	visited := newVisitedSet(total)
	ex := &expansion{chunks: make([][]guarded.Succ, 1)} // one flat chunk
	var stack []int
	// claim records a newly discovered state, reporting false when doing so
	// would exceed the bound.
	claim := func(idx uint64) bool {
		if !visited.claim(idx) {
			return true
		}
		if maxStates > 0 && len(ex.nodes) >= maxStates {
			return false
		}
		ex.nodes = append(ex.nodes, rawNode{idx: idx})
		stack = append(stack, len(ex.nodes)-1)
		return true
	}
	row := make([]int32, sch.NumVars())
	seedTick := 0
	seedCancelled := false
	if !scanInit(sch, init, 0, total, row, func(idx uint64) bool {
		if seedTick++; seedTick&cancelPollMask == 0 && ctx.Err() != nil {
			seedCancelled = true
			return false
		}
		return claim(idx)
	}) {
		if seedCancelled {
			return nil, ctx.Err()
		}
		return nil, boundError(maxStates)
	}
	sc := k.NewScratch()
	for steps := 0; len(stack) > 0; steps++ {
		if steps&cancelPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		off := len(ex.chunks[0])
		ex.chunks[0] = sc.Transitions(ex.nodes[ni].idx, ex.chunks[0])
		for _, tr := range ex.chunks[0][off:] {
			if !claim(tr.To) {
				return nil, boundError(maxStates)
			}
		}
		ex.nodes[ni].off = uint32(off)
		ex.nodes[ni].n = int32(len(ex.chunks[0]) - off)
	}
	return []expansion{*ex}, nil
}
