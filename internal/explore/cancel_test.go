package explore

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"detcorr/internal/state"
)

// These tests pin the context-cancellation contract of BuildCtx / SharedCtx /
// ScanCtx: an abandoned request stops burning CPU, a cancelled build is never
// cached, and the singleflight survives the cancellation of individual
// requesters. They read process-global cache statistics, so like the other
// counter tests they must not run in parallel.

// cancellingInit returns a memoizably-named predicate that cancels the given
// context the first time it is evaluated, so the build is cancelled from
// inside its own seeding scan — strictly mid-build, after the entry is
// registered as in-flight.
func cancellingInit(cancel context.CancelFunc) state.Predicate {
	var once sync.Once
	return state.Pred("cancel(init)", func(s state.State) bool {
		once.Do(cancel)
		return true
	})
}

// cancelCells are the engine configurations the cancellation tests cover:
// one and two workers, in RAM and under the minimum memory budget.
var cancelCells = []Options{
	{Parallelism: 1, MemBudget: -1},
	{Parallelism: 2, MemBudget: -1},
	{Parallelism: 1, MemBudget: spillMinBudget},
	{Parallelism: 2, MemBudget: spillMinBudget},
}

// TestBuildCtxCancelled builds a 6-state counter under a context cancelled
// before the build starts: small enough to finish before any background
// observer of the context could run, so only a direct poll catches it.
// Every repetition in every cell must fail with context.Canceled.
func TestBuildCtxCancelled(t *testing.T) {
	p := counter(t, 6, inc(6))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range cancelCells {
		for rep := 0; rep < 20; rep++ {
			if g, err := BuildCtx(ctx, p, state.True, opts); g != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("%+v, repetition %d: want no graph and context.Canceled, got %v, %v", opts, rep, g, err)
			}
		}
	}
}

func TestSharedCtxCancelledBuildNotCached(t *testing.T) {
	p := counter(t, 6, inc(6))
	for _, opts := range cancelCells {
		for rep := 0; rep < 20; rep++ {
			ResetCache()
			ctx, cancel := context.WithCancel(context.Background())
			init := cancellingInit(cancel)
			before := CacheStats()
			if _, err := SharedCtx(ctx, p, init, opts); !errors.Is(err, context.Canceled) {
				t.Fatalf("%+v, repetition %d: want context.Canceled, got %v", opts, rep, err)
			}
			if _, ok := Peek(p, init, opts); ok {
				t.Fatalf("%+v, repetition %d: a cancelled build must not be resident", opts, rep)
			}
			// The aborted entry must not stick: a later live request rebuilds
			// and caches normally.
			g, err := Shared(p, init, opts)
			if err != nil {
				t.Fatal(err)
			}
			if g.NumNodes() != 6 {
				t.Errorf("rebuilt graph has %d nodes, want 6", g.NumNodes())
			}
			after := CacheStats()
			if d := after.Misses - before.Misses; d != 2 {
				t.Errorf("misses = %d, want 2 (cancelled attempt + rebuild)", d)
			}
			if _, ok := Peek(p, init, opts); !ok {
				t.Error("the rebuilt graph must be resident")
			}
		}
	}
}

func TestSharedCtxWaiterCancellation(t *testing.T) {
	ResetCache()
	p := counter(t, 6, inc(6))
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	slow := state.Pred("slow(init)", func(s state.State) bool {
		once.Do(func() { close(started) })
		<-release
		return true
	})

	builderErr := make(chan error, 1)
	go func() {
		_, err := Shared(p, slow, Options{})
		builderErr <- err
	}()
	<-started

	// A waiter coalesced onto the in-flight build whose own context dies must
	// return promptly with ctx.Err(), leaving the builder untouched.
	wctx, wcancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err := SharedCtx(wctx, p, slow, Options{})
		waiterErr <- err
	}()
	wcancel()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter: want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return while the build was in flight")
	}

	close(release)
	if err := <-builderErr; err != nil {
		t.Fatalf("builder: %v", err)
	}
	if _, ok := Peek(p, slow, Options{}); !ok {
		t.Error("the builder's graph must be resident despite the waiter's cancellation")
	}
}

func TestSharedCtxRetriesAfterCancelledBuilder(t *testing.T) {
	ResetCache()
	p := counter(t, 6, inc(6))
	bctx, bcancel := context.WithCancel(context.Background())
	defer bcancel()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	gate := state.Pred("gate(init)", func(s state.State) bool {
		once.Do(func() { close(started) })
		<-release
		return true
	})

	builderErr := make(chan error, 1)
	go func() {
		_, err := SharedCtx(bctx, p, gate, Options{})
		builderErr <- err
	}()
	<-started

	// A second requester with a live context coalesces onto the flight.
	waiter := make(chan error, 1)
	var waiterGraph *Graph
	go func() {
		g, err := Shared(p, gate, Options{})
		waiterGraph = g
		waiter <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter reach the coalesced wait

	// The builder's requester walks away; its aborted build must not strand
	// the waiter — the waiter retries, elects itself builder, and succeeds.
	bcancel()
	close(release)
	if err := <-builderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled builder: want context.Canceled, got %v", err)
	}
	select {
	case err := <-waiter:
		if err != nil {
			t.Fatalf("waiter after builder cancellation: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded after the builder's cancellation")
	}
	if waiterGraph == nil || waiterGraph.NumNodes() != 6 {
		t.Fatalf("waiter graph = %v, want the 6-state counter graph", waiterGraph)
	}
	if g, ok := Peek(p, gate, Options{}); !ok || g != waiterGraph {
		t.Error("the retried build must be resident")
	}
}

func TestScanCtxCancelled(t *testing.T) {
	p := counter(t, 6, inc(6))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ScanCtx(ctx, p, state.True, ScanOptions{}, Scanner{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ScanCtx: want context.Canceled, got %v", err)
	}
	if _, _, err := FindDeadlockCtx(ctx, p, state.True, ScanOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("FindDeadlockCtx: want context.Canceled, got %v", err)
	}
}

func TestResidentOfAndEvictProgram(t *testing.T) {
	ResetCache()
	p := counter(t, 6, inc(6))
	q := counter(t, 4, inc(4))
	ge2 := state.Pred("x ge 2", func(s state.State) bool { return s.Get(0) >= 2 })
	if _, err := Shared(p, state.True, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Shared(p, ge2, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Shared(q, state.True, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := ResidentOf(p); got != 6+4 {
		t.Errorf("ResidentOf(p) = %d, want 10", got)
	}
	if got := ResidentOf(q); got != 4 {
		t.Errorf("ResidentOf(q) = %d, want 4", got)
	}
	before := CacheStats()
	if freed := EvictProgram(p); freed != 10 {
		t.Errorf("EvictProgram(p) freed %d states, want 10", freed)
	}
	after := CacheStats()
	if got := ResidentOf(p); got != 0 {
		t.Errorf("ResidentOf(p) after eviction = %d, want 0", got)
	}
	if _, ok := Peek(p, state.True, Options{}); ok {
		t.Error("evicted graph must not be resident")
	}
	if _, ok := Peek(q, state.True, Options{}); !ok {
		t.Error("eviction of p must not touch q's graphs")
	}
	if after.States != before.States-10 {
		t.Errorf("States = %d, want %d", after.States, before.States-10)
	}
	if d := after.Evictions - before.Evictions; d != 2 {
		t.Errorf("evictions = %d, want 2", d)
	}
	if freed := EvictProgram(p); freed != 0 {
		t.Errorf("second EvictProgram(p) freed %d, want 0", freed)
	}
}
