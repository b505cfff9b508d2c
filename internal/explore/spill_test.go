package explore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// --- spill file layer -------------------------------------------------------

func TestRunWriterReaderRoundtrip(t *testing.T) {
	cases := []struct {
		name     string
		records  int
		bufBytes int
	}{
		{"ram-tail-only", 50, 1 << 16},
		{"multi-chunk", 5000, 8 * spillMinBufRecords},
		{"exact-chunk-boundary", 4 * spillMinBufRecords, 8 * spillMinBufRecords},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newRunWriter(t.TempDir(), "test", 8, tc.bufBytes)
			defer w.remove()
			var rec [8]byte
			for i := 0; i < tc.records; i++ {
				putUint64(&rec, uint64(i)*3)
				if err := w.push(rec[:]); err != nil {
					t.Fatal(err)
				}
			}
			r, err := w.reader()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.records; i++ {
				got, ok, err := r.next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("record %d: premature end", i)
				}
				if v := leUint64(got); v != uint64(i)*3 {
					t.Fatalf("record %d: got %d, want %d", i, v, uint64(i)*3)
				}
			}
			if _, ok, err := r.next(); ok || err != nil {
				t.Fatalf("after last record: ok=%v err=%v", ok, err)
			}
		})
	}
}

func TestSpillFrontierFIFO(t *testing.T) {
	// A tiny buffer forces every level onto disk; the pop order must still be
	// the exact global push order (the in-RAM engines' FIFO contract).
	f := newSpillFrontier(t.TempDir(), 1) // floors to spillMinBufRecords records
	defer f.close()
	var want []uint64
	pushed := 0
	push := func(v uint64) {
		if err := f.push(v); err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
		pushed++
	}
	// Interleave pushes and pops the way a BFS does.
	for i := 0; i < 300; i++ {
		push(uint64(i))
	}
	var got []uint64
	for len(got) < 3000 {
		idx, ok, err := f.pop()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, idx)
		// Each popped "state" spawns a successor while under the cap.
		if pushed < 3000 {
			push(idx + 10000)
		}
	}
	if f.pending != 0 {
		t.Fatalf("pending = %d after drain", f.pending)
	}
	if len(got) != len(want) {
		t.Fatalf("popped %d records, pushed %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pop %d: got %d, want %d (FIFO order violated)", i, got[i], want[i])
		}
	}
}

func TestSpillCorruptFlushDetected(t *testing.T) {
	// testCorruptFlush simulates a torn write on every flushed chunk: the
	// reader must surface ErrSpillCorrupt, never hand back wrong records.
	testCorruptFlush = func(payload []byte) { payload[len(payload)/2] ^= 0x40 }
	defer func() { testCorruptFlush = nil }()
	w := newRunWriter(t.TempDir(), "torn", 8, spillMinBufRecords*8)
	defer w.remove()
	var rec [8]byte
	for i := 0; i < 10*spillMinBufRecords; i++ {
		putUint64(&rec, uint64(i))
		if err := w.push(rec[:]); err != nil {
			t.Fatal(err)
		}
	}
	r, err := w.reader()
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := r.next()
		if err != nil {
			if !errors.Is(err, ErrSpillCorrupt) {
				t.Fatalf("got %v, want ErrSpillCorrupt", err)
			}
			return
		}
		if !ok {
			t.Fatal("reader ended cleanly over corrupted chunks")
		}
	}
}

func TestSpillTruncationDetected(t *testing.T) {
	dir := t.TempDir()
	w := newRunWriter(dir, "trunc", 8, spillMinBufRecords*8)
	defer w.remove()
	var rec [8]byte
	for i := 0; i < 10*spillMinBufRecords; i++ {
		putUint64(&rec, uint64(i))
		if err := w.push(rec[:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-chunk, as a crashed or out-of-space write would.
	st, err := w.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, st.Name()), st.Size()-13); err != nil {
		t.Fatal(err)
	}
	r, err := w.reader()
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := r.next()
		if err != nil {
			if !errors.Is(err, ErrSpillCorrupt) {
				t.Fatalf("got %v, want ErrSpillCorrupt", err)
			}
			return
		}
		if !ok {
			t.Fatal("reader ended cleanly over a truncated run")
		}
	}
}

func TestParentLogChain(t *testing.T) {
	// A known BFS tree recorded across several flushed chunks plus an in-RAM
	// tail: chain must reconstruct root → leaf exactly.
	l := newParentLog(t.TempDir(), 1) // floors to the minimum buffer
	defer l.close()
	// Chain 0 → 1 → 2 → … → 999 interleaved with decoy siblings.
	for child := uint64(1); child < 1000; child++ {
		if err := l.record(child, child-1); err != nil {
			t.Fatal(err)
		}
		if err := l.record(child+100000, child-1); err != nil { // sibling
			t.Fatal(err)
		}
	}
	chain, err := l.chain(999)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1000 {
		t.Fatalf("chain length %d, want 1000", len(chain))
	}
	for i, v := range chain {
		if v != uint64(i) {
			t.Fatalf("chain[%d] = %d, want %d", i, v, i)
		}
	}
}

// --- spill visited layer ----------------------------------------------------

func TestShardedVisitedClaimsOnce(t *testing.T) {
	ResetSpillCounters()
	pt := newSpillPartitioner(1<<20, 4)
	s := newShardedVisited(t.TempDir(), pt, spillMinBudget/2)
	// Claim a pseudo-random but replayable sequence with duplicates; every
	// index must be granted exactly once, however the layers compact.
	const n = 40000
	seen := map[uint64]bool{}
	x := uint64(12345)
	for i := 0; i < 2*n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		idx := (x >> 20) % (1 << 20)
		fresh, err := s.claim(idx)
		if err != nil {
			t.Fatal(err)
		}
		if fresh == seen[idx] {
			t.Fatalf("claim(%d) = %v on occurrence with seen=%v", idx, fresh, seen[idx])
		}
		seen[idx] = true
	}
	if s.merges == 0 {
		t.Fatal("expected shard-file merges at this volume")
	}
	if s.probes == 0 {
		t.Fatal("expected disk probes for revisits after merges")
	}
	s.finish()
	c := SpillCounters()
	if c.FrontHits == 0 || c.FrontMisses == 0 || c.ShardMerges == 0 || c.ShardProbes == 0 {
		t.Fatalf("finish must fold counters, got %+v", c)
	}
}

func TestDensePartitionWordAlignment(t *testing.T) {
	// Partition blocks must be multiples of 64 so dense-bitset words are
	// never shared between owners.
	for _, total := range []uint64{100, 1 << 10, 1 << 20, 387420489} {
		for _, parts := range []int{1, 3, 64, 1000} {
			pt := newSpillPartitioner(total, parts)
			if pt.block%64 != 0 || pt.block == 0 {
				t.Fatalf("total=%d parts=%d: block %d not a positive multiple of 64", total, parts, pt.block)
			}
		}
	}
}

// --- engine equivalence through the public API ------------------------------

// spillGraphEqual asserts two graphs built by different engines are
// byte-identical in every observable dimension (the difftest package holds
// the cross-package suite; this in-package copy avoids an import cycle).
func spillGraphEqual(t *testing.T, ref, g *Graph) {
	t.Helper()
	if ref.NumNodes() != g.NumNodes() || ref.NumEdges() != g.NumEdges() {
		t.Fatalf("shape differs: %d/%d nodes, %d/%d edges",
			ref.NumNodes(), g.NumNodes(), ref.NumEdges(), g.NumEdges())
	}
	for id := 0; id < ref.NumNodes(); id++ {
		if !ref.State(id).Equal(g.State(id)) {
			t.Fatalf("node %d: states differ: %s vs %s", id, ref.State(id), g.State(id))
		}
		ro, go_ := ref.Out(id), g.Out(id)
		if len(ro) != len(go_) {
			t.Fatalf("node %d: out-degree differs", id)
		}
		for i := range ro {
			if ro[i] != go_[i] {
				t.Fatalf("node %d edge %d: %+v vs %+v", id, i, ro[i], go_[i])
			}
		}
		if ref.Deadlocked(id) != g.Deadlocked(id) {
			t.Fatalf("node %d: deadlock flags differ", id)
		}
	}
}

func TestBuildSpilledMatchesInRAM(t *testing.T) {
	p := counter(t, 4000, inc(4000), cycle(4000))
	ref, err := Build(p, state.True, Options{MemBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []Options{
		{MemBudget: spillMinBudget},                                // dense visited, spilling frontier
		{MemBudget: spillMinBudget, Parallelism: 3},                // partition-owned workers
		{MemBudget: spillMinBudget, Parallelism: 3, Partitions: 5}, // parts not divisible by workers
		{MemBudget: 1 << 24},                                       // everything under budget: no disk
	} {
		tc.SpillDir = t.TempDir()
		g, err := Build(p, state.True, tc)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		spillGraphEqual(t, ref, g)
	}
}

func TestBuildSpilledShardedVisited(t *testing.T) {
	// 300000 states need a 37.5 KB bitset — over the minimum budget's
	// visited share — so this run exercises the Bloom-fronted shard files.
	p := counter(t, 300000, cycle(300000))
	ref, err := Build(p, state.True, Options{MemBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	ResetSpillCounters()
	g, err := Build(p, state.True, Options{MemBudget: spillMinBudget, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	spillGraphEqual(t, ref, g)
	if c := SpillCounters(); c.FrontMisses == 0 {
		t.Errorf("sharded run should record Bloom front misses, got %+v", c)
	}
}

func TestScanSpilledMatchesInRAM(t *testing.T) {
	p := counter(t, 5000, inc(5000), cycle(5000))
	_, ram := runScan(t, p, state.True, ScanOptions{MemBudget: -1})
	ResetSpillCounters()
	_, spilled := runScan(t, p, state.True, ScanOptions{MemBudget: spillMinBudget, SpillDir: t.TempDir()})
	if len(ram.visits) != len(spilled.visits) {
		t.Fatalf("visit counts differ: %d vs %d", len(ram.visits), len(spilled.visits))
	}
	for i := range ram.visits {
		if ram.visits[i] != spilled.visits[i] {
			t.Fatalf("visit %d differs: %d vs %d (FIFO order must match)", i, ram.visits[i], spilled.visits[i])
		}
	}
	if len(ram.edges) != len(spilled.edges) {
		t.Fatalf("edge counts differ: %d vs %d", len(ram.edges), len(spilled.edges))
	}
	for i := range ram.edges {
		if ram.edges[i] != spilled.edges[i] || ram.fresh[i] != spilled.fresh[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
	if c := SpillCounters(); c.FrontierRuns == 0 {
		t.Errorf("a 5000-state frontier must spill under the minimum budget, got %+v", c)
	}
}

func TestFindDeadlockSpilledWitnessMatches(t *testing.T) {
	// The in-RAM hunt, the spilled hunt and the built graph's PathBetween
	// must agree on the witness, state for state.
	halting, haltingFair := composedHalting()
	glitch, glitchFair := faultOnlyDeadlock()
	cases := []struct {
		name string
		prog *guarded.Program
		init state.Predicate
		fair []bool
	}{
		{"counter", counter(t, 3000, inc(3000)),
			state.Pred("x le 1", func(s state.State) bool { return s.Get(0) <= 1 }), nil},
		{"halting/composed", halting,
			state.Pred("x=0 & !stop", func(s state.State) bool { return s.Get(0) == 0 && !s.Bool(1) }), haltingFair},
		{"fault-only", glitch,
			state.Pred("a=0 & b=0 & !c", func(s state.State) bool { return s.Get(0) == 0 && s.Get(1) == 0 && !s.Bool(2) }), glitchFair},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ram, found, err := FindDeadlock(tc.prog, tc.init, ScanOptions{Fair: tc.fair, MemBudget: -1})
			if err != nil || !found {
				t.Fatalf("in-RAM hunt: found=%v err=%v", found, err)
			}
			spilled, found, err := FindDeadlock(tc.prog, tc.init, ScanOptions{Fair: tc.fair, MemBudget: spillMinBudget, SpillDir: t.TempDir()})
			if err != nil || !found {
				t.Fatalf("spilled hunt: found=%v err=%v", found, err)
			}
			g, err := Build(tc.prog, tc.init, Options{Fair: tc.fair, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			path, found := g.PathBetween(g.SetOf(tc.init), g.DeadlockSet(), nil)
			if !found {
				t.Fatal("the graph has no path to a deadlock")
			}
			for name, trace := range map[string][]state.State{"spilled hunt": spilled, "graph path": path} {
				if len(trace) != len(ram) {
					t.Fatalf("%s has %d states, in-RAM witness %d", name, len(trace), len(ram))
				}
				for i := range ram {
					if !ram[i].Equal(trace[i]) {
						t.Fatalf("%s[%d] = %s, in-RAM witness has %s", name, i, trace[i], ram[i])
					}
				}
			}
		})
	}
}

// composedHalting is the halting program with its fault composed in, as
// fault.Compose builds it: program actions first and fair, the fault last
// and unfair.
//
//	action run  :: !stop & x < 5 -> x := x + 1
//	action halt :: x == 4 -> stop := true
//	fault kick  :: stop -> x := ?
func composedHalting() (*guarded.Program, []bool) {
	sch := state.MustSchema(state.IntVar("x", 6), state.BoolVar("stop"))
	run := guarded.Det("run", state.Pred("!stop & x<5", func(s state.State) bool { return !s.Bool(1) && s.Get(0) < 5 }),
		func(s state.State) state.State { return s.With(0, s.Get(0)+1) })
	halt := guarded.Det("halt", state.Pred("x=4", func(s state.State) bool { return s.Get(0) == 4 }),
		func(s state.State) state.State { return s.WithBool(1, true) })
	kick := guarded.Choice("kick", state.Pred("stop", func(s state.State) bool { return s.Bool(1) }),
		func(s state.State) []state.State {
			out := make([]state.State, 6)
			for x := range out {
				out[x] = s.With(0, x)
			}
			return out
		})
	return guarded.MustProgram("halting", sch, run, halt, kick), []bool{true, true, false}
}

// faultOnlyDeadlock has three variables and deadlocks reachable only
// through its unfair glitch: the fair actions alone cycle forever.
//
//	action stepA   :: !c -> a := (a + 1) % 60
//	action stepB   :: !c & a == 0 -> b := (b + 1) % 60
//	action recover :: c & b > 0 -> b := b - 1
//	fault glitch   :: !c & a >= 50 -> c := true
func faultOnlyDeadlock() (*guarded.Program, []bool) {
	sch := state.MustSchema(state.IntVar("a", 60), state.IntVar("b", 60), state.BoolVar("c"))
	stepA := guarded.Det("stepA", state.Pred("!c", func(s state.State) bool { return !s.Bool(2) }),
		func(s state.State) state.State { return s.With(0, (s.Get(0)+1)%60) })
	stepB := guarded.Det("stepB", state.Pred("!c & a=0", func(s state.State) bool { return !s.Bool(2) && s.Get(0) == 0 }),
		func(s state.State) state.State { return s.With(1, (s.Get(1)+1)%60) })
	undo := guarded.Det("recover", state.Pred("c & b>0", func(s state.State) bool { return s.Bool(2) && s.Get(1) > 0 }),
		func(s state.State) state.State { return s.With(1, s.Get(1)-1) })
	glitch := guarded.Det("glitch", state.Pred("!c & a>=50", func(s state.State) bool { return !s.Bool(2) && s.Get(0) >= 50 }),
		func(s state.State) state.State { return s.WithBool(2, true) })
	return guarded.MustProgram("glitchy", sch, stepA, stepB, undo, glitch), []bool{true, true, true, false}
}

func TestFaultOnlyDeadlockNeedsTheFault(t *testing.T) {
	p, _ := faultOnlyDeadlock()
	fairOnly := guarded.MustProgram("glitchy", p.Schema(), p.Actions()[:3]...)
	init := state.Pred("a=0 & b=0 & !c", func(s state.State) bool { return s.Get(0) == 0 && s.Get(1) == 0 && !s.Bool(2) })
	if trace, found, err := FindDeadlock(fairOnly, init, ScanOptions{}); err != nil || found {
		t.Fatalf("without the fault: found=%v err=%v trace=%v", found, err, trace)
	}
}

func TestSpilledScanCorruptRunFails(t *testing.T) {
	// End to end: a torn frontier run must abort the verdict with
	// ErrSpillCorrupt — a damaged spill can fail a scan, never skew it.
	testCorruptFlush = func(payload []byte) { payload[0] ^= 0x01 }
	defer func() { testCorruptFlush = nil }()
	p := counter(t, 5000, cycle(5000))
	_, err := Scan(p, state.True, ScanOptions{MemBudget: spillMinBudget, SpillDir: t.TempDir()}, Scanner{})
	if !errors.Is(err, ErrSpillCorrupt) {
		t.Fatalf("got %v, want ErrSpillCorrupt", err)
	}
}

func TestSpilledMaxStates(t *testing.T) {
	p := counter(t, 5000, cycle(5000))
	for _, par := range []int{1, 3} {
		opts := Options{MemBudget: spillMinBudget, SpillDir: t.TempDir(), MaxStates: 17, Parallelism: par}
		if _, err := Build(p, state.True, opts); !errors.Is(err, ErrStateBound) {
			t.Fatalf("parallelism %d: got %v, want ErrStateBound", par, err)
		}
		// The bound is exact: exactly MaxStates states must succeed.
		opts.MaxStates = 5000
		if _, err := Build(p, state.True, opts); err != nil {
			t.Fatalf("parallelism %d: exact bound failed: %v", par, err)
		}
	}
	if _, err := Scan(p, state.True, ScanOptions{MemBudget: spillMinBudget, MaxStates: 17}, Scanner{}); !errors.Is(err, ErrStateBound) {
		t.Fatalf("spilled scan: got %v, want ErrStateBound", err)
	}
}

func TestSpilledBuildCancel(t *testing.T) {
	p := counter(t, 100000, cycle(100000))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildCtx(ctx, p, state.True, Options{MemBudget: spillMinBudget}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestDefaultSpill(t *testing.T) {
	pb, pd := SetDefaultSpill(spillMinBudget, t.TempDir())
	defer SetDefaultSpill(pb, pd)
	p := counter(t, 5000, cycle(5000))
	ResetSpillCounters()
	// MemBudget 0 inherits the process default and spills…
	if _, err := Scan(p, state.True, ScanOptions{}, Scanner{}); err != nil {
		t.Fatal(err)
	}
	if c := SpillCounters(); c.FrontierRuns == 0 {
		t.Errorf("default budget must engage the spill path, got %+v", c)
	}
	// …while a negative budget forces the in-RAM engines despite it.
	ResetSpillCounters()
	if _, err := Scan(p, state.True, ScanOptions{MemBudget: -1}, Scanner{}); err != nil {
		t.Fatal(err)
	}
	if c := SpillCounters(); c.FrontierRuns != 0 {
		t.Errorf("MemBudget<0 must stay in RAM, got %+v", c)
	}
}

func TestSpillRunCleansUp(t *testing.T) {
	dir := t.TempDir()
	p := counter(t, 5000, cycle(5000))
	if _, err := Build(p, state.True, Options{MemBudget: spillMinBudget, SpillDir: dir, Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir not cleaned up: %d entries remain", len(ents))
	}
}
