package verify

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"testing"

	"detcorr/internal/explore"
	"detcorr/internal/explore/difftest"
	"detcorr/internal/fault"
	"detcorr/internal/gcl"
	"detcorr/internal/prove"
	"detcorr/internal/serve/api"
	"detcorr/internal/serve/corpus"
	"detcorr/internal/state"
)

// order is one rung order the tests force through the value's threshold
// and its lazily built memos: graph only (no prover, no slices — the
// reference), explore first (no size is too large to explore before the
// prover), prover first (no size is small enough to explore first), and
// slice first (prover first, with no prover).
type order struct {
	name              string
	limit             float64
	noProver, noSlice bool
}

var orders = []order{
	{"graph-only", math.Inf(1), true, true},
	{"explore-first", math.Inf(1), false, false},
	{"prove-first", 0, false, false},
	{"slice-first", 0, true, false},
}

// value compiles src afresh, so values in different orders never share a
// program pointer — and so never share a cached graph — and forces o.
func value(t *testing.T, src string, o order) *Program {
	t.Helper()
	f, err := gcl.ParseAndCompile(src)
	if err != nil {
		t.Fatal(err)
	}
	v := New(f, nil)
	v.limit = o.limit
	if o.noProver {
		v.sysOnce.Do(func() {}) // the system stays nil: every attempt declines
	}
	if o.noSlice {
		v.infoOnce.Do(func() {}) // the analysis stays nil: nothing is sliced
	}
	return v
}

// encode renders a decision the way dcserved and dctl verdict print it.
func encode(resp *api.Response, err error) []byte {
	if err != nil {
		return []byte("error: " + err.Error())
	}
	var b bytes.Buffer
	if err := api.Encode(&b, resp); err != nil {
		return []byte("encode: " + err.Error())
	}
	return b.Bytes()
}

// questions are the requests the agreement test decides on one system:
// every declared predicate's closure and convergence, detects and
// corrects with Z = X = U = the predicate, plain and under every
// tolerance kind, plus the listed requests.
func questions(t *testing.T, src string, listed []api.Request) []api.Request {
	t.Helper()
	f, err := gcl.ParseAndCompile(src)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(f.Preds))
	for name := range f.Preds {
		names = append(names, name)
	}
	sort.Strings(names)
	var reqs []api.Request
	for _, p := range names {
		reqs = append(reqs,
			api.Request{Check: api.CheckClosure, Invariant: p},
			api.Request{Check: api.CheckConvergence, Invariant: "true", Goal: p})
		for _, check := range []string{api.CheckDetects, api.CheckCorrects} {
			for _, tol := range []string{"", "failsafe", "nonmasking", "masking"} {
				reqs = append(reqs, api.Request{Check: check, Z: p, X: p, From: p, Tolerant: tol})
			}
		}
	}
	reqs = append(reqs, listed...)
	for i := range reqs {
		reqs[i].Program = src
	}
	return reqs
}

func component(check, z, x, from, tolerant string) api.Request {
	return api.Request{Check: check, Z: z, X: x, From: from, Tolerant: tolerant}
}

// TestLadderOrdersAgree decides the same questions in every rung order and
// requires responses byte-identical to the graph-only order's: the prover
// and the slicer may decide a verdict, but never change one, witness
// included. The systems are the
// paper's (memory access pf, pn and pm, TMR, Byzantine agreement), the
// countdown, the dcserved corpus, and Dijkstra's ring of 3 and 4; the
// listed questions are the benchmark's component questions on them. The
// deadlock subtest asks every deadlock question of these systems and of
// difftest.Systems, once on the scan and once on the cached rung.
func TestLadderOrdersAgree(t *testing.T) {
	corpusReqs := map[string][]api.Request{}
	for _, it := range corpus.Items() {
		req := it.Request
		corpusReqs[req.Program] = append(corpusReqs[req.Program], req)
	}
	systems := []struct {
		name   string
		src    string
		listed []api.Request
	}{
		{"memaccess_pf", difftest.MemaccessPF, []api.Request{
			component(api.CheckDetects, "Z1p", "X1", "U1", "failsafe")}},
		{"memaccess_pn", difftest.MemaccessPN, []api.Request{
			component(api.CheckCorrects, "X1", "X1", "", "nonmasking"),
			component(api.CheckCorrects, "X1", "X1", "", "masking")}},
		{"memaccess_pm", corpus.Memaccess, append([]api.Request{
			component(api.CheckDetects, "Z1p", "X1", "U1", "masking"),
			component(api.CheckDetects, "Z1p", "DataCorrect", "U1", ""),
			{Check: api.CheckConvergence, Invariant: "U1", Goal: "DataCorrect"}},
			corpusReqs[corpus.Memaccess]...)},
		{"tmr", difftest.TMRSource, []api.Request{
			component(api.CheckDetects, "Wit", "OutCorrect", "T", ""),
			{Check: api.CheckConvergence, Invariant: "T", Goal: "OutCorrect"}}},
		{"byzagree", difftest.ByzAgreeSource, []api.Request{
			component(api.CheckCorrects, "Done", "Done", "S", "")}},
		{"countdown", corpus.Countdown, append([]api.Request{
			component(api.CheckDetects, "Zero", "Zero", "", "")},
			corpusReqs[corpus.Countdown]...)},
		{"ring3", corpus.Ring3, corpusReqs[corpus.Ring3]},
		{"ring4", difftest.RingSource(4, 4), []api.Request{
			component(api.CheckCorrects, "Legit", "Legit", "", ""),
			component(api.CheckCorrects, "Legit", "Legit", "", "nonmasking"),
			component(api.CheckCorrects, "Legit", "Legit", "", "masking"),
			component(api.CheckCorrects, "Legit", "Legit", "", "failsafe")}},
		{"ring_watched3", difftest.RingWatchedSource(3, 3), nil},
	}
	var rungsMu sync.Mutex
	rungs := make([]map[Rung]int, len(orders))
	for i := range rungs {
		rungs[i] = map[Rung]int{}
	}
	t.Run("systems", func(t *testing.T) {
		for _, sys := range systems {
			sys := sys
			reqs := questions(t, sys.src, sys.listed)
			t.Run(sys.name, func(t *testing.T) {
				t.Parallel()
				ctx := context.Background()
				var want [][]byte
				for oi, o := range orders {
					v := value(t, sys.src, o)
					defer v.Evict()
					for qi, req := range reqs {
						resp, rung, err := Decide(ctx, v, req)
						got := encode(resp, err)
						if oi == 0 {
							want = append(want, got)
						} else if !bytes.Equal(got, want[qi]) {
							t.Errorf("%+v: %s differs from %s\n  %s: %s  %s: %s",
								req, o.name, orders[0].name, orders[0].name, want[qi], o.name, got)
						}
						if req.Check != api.CheckProve { // the prove check is the prover in every order
							rungsMu.Lock()
							rungs[oi][rung]++
							rungsMu.Unlock()
						}
					}
				}
			})
		}
	})
	t.Run("deadlock", func(t *testing.T) {
		var files []*gcl.File
		for _, sys := range systems {
			f, err := gcl.ParseAndCompile(sys.src)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		for _, sys := range difftest.Systems() {
			f := &gcl.File{Name: sys.Name, Schema: sys.Prog.Schema(), Program: sys.Prog, Preds: map[string]state.Predicate{}}
			if !trivial(sys.Init) {
				f.Preds[sys.Init.String()] = sys.Init
			}
			files = append(files, f)
		}
		verdicts := map[string]int{}
		for _, f := range files {
			deadlockRungsAgree(t, f, verdicts)
		}
		if verdicts[api.VerdictDeadlock] == 0 || verdicts[api.VerdictDeadlockFree] == 0 {
			t.Errorf("the deadlock questions should reach both verdicts: %v", verdicts)
		}
		t.Logf("deadlock verdicts: %v", verdicts)
	})
	// The forced orders must really reach the rungs they exist to test.
	if rungs[0][RungSlice]+rungs[0][RungProve] > 0 {
		t.Errorf("the graph-only order decided on the prover or a slice: %v", rungs[0])
	}
	if rungs[2][RungProve] == 0 {
		t.Error("the prover-first order never decided on the prover")
	}
	if rungs[3][RungSlice] == 0 || rungs[3][RungProve] > 0 {
		t.Errorf("the slice-first order decided %d on the slice and %d on the prover", rungs[3][RungSlice], rungs[3][RungProve])
	}
	for i, o := range orders {
		t.Logf("%s: %v", o.name, rungs[i])
	}
}

// deadlockRungsAgree decides every deadlock question on f — from true and
// from each declared predicate, with and without the fault class — first
// cold, where a scan hunts it, then with its graph resident, where the
// cached rung answers from the graph. The responses must be byte-identical.
// Beside each fault-composed graph sits a decoy of the same program and
// start with every action fair, which the cached rung must not answer
// from: under that mask a state where only a fault is enabled is no
// deadlock.
func deadlockRungsAgree(t *testing.T, f *gcl.File, verdicts map[string]int) {
	t.Helper()
	ctx := context.Background()
	froms := []string{""}
	for name := range f.Preds {
		froms = append(froms, name)
	}
	sort.Strings(froms[1:])
	var reqs []api.Request
	for _, from := range froms {
		for _, faults := range []bool{false, true} {
			reqs = append(reqs, api.Request{Program: f.Name, Check: api.CheckDeadlock, From: from, Faults: faults})
		}
	}
	v := New(f, nil)
	composed, mask := f.Program, []bool(nil)
	if !f.Faults.Empty() {
		var err error
		if composed, mask, err = fault.Compose(f.Program, f.Faults); err != nil {
			t.Fatal(err)
		}
	}
	defer explore.EvictProgram(composed)
	defer v.Evict()
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		resp, rung, err := Decide(ctx, v, req)
		if want[i] = encode(resp, err); rung != RungScan {
			t.Errorf("%s %+v: decided cold on rung %q, want %q", f.Name, req, rung, RungScan)
		}
	}
	for _, req := range reqs {
		from, err := pred(f, req.From, "from")
		if err != nil {
			t.Fatal(err)
		}
		prog, fair := f.Program, []bool(nil)
		if req.Faults && mask != nil {
			prog, fair = composed, mask
			if _, err := explore.Shared(prog, from, explore.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := explore.Shared(prog, from, explore.Options{Fair: fair}); err != nil {
			t.Fatal(err)
		}
	}
	for i, req := range reqs {
		resp, rung, err := Decide(ctx, v, req)
		if got := encode(resp, err); !bytes.Equal(got, want[i]) {
			t.Errorf("%s %+v: the cached rung answered %s, the scan %s", f.Name, req, got, want[i])
		}
		if rung != RungCached {
			t.Errorf("%s %+v: decided with the graph resident on rung %q, want %q", f.Name, req, rung, RungCached)
		}
		if resp != nil {
			verdicts[resp.Verdict]++
		}
	}
}

// TestCheckClosedProverHook checks the prover rung's contract on the
// closure ladder: a proof short-circuits the check, an attempt that
// declines leaves the verdict to enumeration, attempts are memoized, and
// without a prover the enumeration verdict stands.
func TestCheckClosedProverHook(t *testing.T) {
	const src = `program counter
var x : 0..5
pred AtLeast2 :: x >= 2
action dec :: x > 0 -> x := x - 1
`
	ctx := context.Background()
	f, err := gcl.ParseAndCompile(src)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := f.Pred("AtLeast2")
	key := "closure:AtLeast2"

	// An attempt that declines: the scan must still find the violation.
	v := New(f, nil)
	rung, err := v.closed(ctx, s)
	if err == nil || rung != RungScan {
		t.Fatalf("a declining prover must not change the verdict: rung %s, err %v", rung, err)
	}
	if ok, seen := v.proved[key]; !seen || ok {
		t.Fatalf("the declined attempt was not memoized as not proved: %v %v", ok, seen)
	}
	// An attempt that (unsoundly, for the test) claims a proof: the check
	// must return at once, and the attempt must run only once.
	v = New(f, nil)
	calls := 0
	for i := 0; i < 2; i++ {
		ok, err := v.attempt(ctx, key, func(*prove.System) (bool, error) {
			calls++
			return true, nil
		})
		if !ok || err != nil {
			t.Fatalf("attempt = %v, %v", ok, err)
		}
	}
	if calls != 1 {
		t.Errorf("the attempt ran %d times, want 1", calls)
	}
	if rung, err := v.closed(ctx, s); err != nil || rung != RungProve {
		t.Fatalf("a proof must short-circuit the ladder: rung %s, err %v", rung, err)
	}
	// Without an AST there is no prover: the enumeration verdict returns.
	bare := *f
	bare.AST = nil
	if rung, err := New(&bare, nil).closed(ctx, s); err == nil || rung != RungScan {
		t.Fatalf("without a prover the enumeration verdict must return: rung %s, err %v", rung, err)
	}
}

// TestCancelledAttemptNotMemoized: an attempt cut short by its context
// proved nothing and refuted nothing, so the next request must try again.
func TestCancelledAttemptNotMemoized(t *testing.T) {
	v := value(t, difftest.RingSource(4, 4), orders[2])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := api.Request{Program: "ring4", Check: api.CheckCorrects, Z: "Legit", X: "Legit"}
	if _, _, err := Decide(ctx, v, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("Decide on a cancelled context: err = %v, want context.Canceled", err)
	}
	if len(v.proved) != 0 {
		t.Errorf("a cancelled attempt was memoized: %v", v.proved)
	}
}

// TestProvedHalfBuildsNoGraph: when the prover decides the fault-free half
// of a tolerant check, the tolerant half explores the fault span only —
// the graph of the program from U is never built.
func TestProvedHalfBuildsNoGraph(t *testing.T) {
	v := value(t, corpus.Memaccess, orders[2])
	defer v.Evict()
	req := api.Request{Program: corpus.Memaccess, Check: api.CheckDetects, Z: "Z1p", X: "X1", From: "U1", Tolerant: "masking"}
	resp, rung, err := Decide(context.Background(), v, req)
	if err != nil || resp.Verdict != api.VerdictHolds || rung != RungProve {
		t.Fatalf("detects masking: %+v, rung %s, err %v", resp, rung, err)
	}
	u, _ := v.f.Pred("U1")
	if _, built := explore.Peek(v.f.Program, u, explore.Options{}); built {
		t.Error("the prover decided the fault-free half, yet the graph from U1 was built")
	}
}

// TestEvictDropsSliceGraphs: a value's slices are part of what it retains,
// so evicting the value frees their graphs too.
func TestEvictDropsSliceGraphs(t *testing.T) {
	src := difftest.RingWatchedSource(3, 3)
	v := value(t, src, orders[1])
	req := api.Request{Program: src, Check: api.CheckConvergence, Invariant: "true", Goal: "Legit"}
	resp, rung, err := Decide(context.Background(), v, req)
	if err != nil || resp.Verdict != api.VerdictHolds || rung != RungSlice {
		t.Fatalf("watched ring convergence: %+v, rung %s, err %v", resp, rung, err)
	}
	var slices []*Program
	for _, sl := range v.slices {
		if sl != nil {
			slices = append(slices, sl)
		}
	}
	if len(slices) == 0 || v.Resident() == 0 {
		t.Fatalf("the slice rung left no slice graph resident (%d slices, %d states)", len(slices), v.Resident())
	}
	if freed := v.Evict(); freed == 0 {
		t.Error("Evict freed nothing")
	}
	for _, sl := range slices {
		if n := explore.ResidentOf(sl.f.Program); n != 0 {
			t.Errorf("slice %s still holds %d resident states after Evict", sl.f.Name, n)
		}
	}
}

// TestDecideConcurrent shares one value between goroutines, as dcserved's
// flights do: the memos (prover system and obligations, analysis and
// slices) are built under contention, and every response must still be
// the graph-only order's, byte for byte.
func TestDecideConcurrent(t *testing.T) {
	for _, src := range []string{corpus.Memaccess, difftest.RingWatchedSource(3, 3)} {
		reqs := questions(t, src, nil)
		ref := value(t, src, orders[0])
		want := make([][]byte, len(reqs))
		for i, req := range reqs {
			resp, _, err := Decide(context.Background(), ref, req)
			want[i] = encode(resp, err)
		}
		ref.Evict()
		v := value(t, src, orders[2])
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range reqs {
					qi := (i + g*len(reqs)/4) % len(reqs)
					resp, _, err := Decide(context.Background(), v, reqs[qi])
					if got := encode(resp, err); !bytes.Equal(got, want[qi]) {
						t.Errorf("%+v: got %s, want %s", reqs[qi], got, want[qi])
					}
				}
			}(g)
		}
		wg.Wait()
		v.Evict()
	}
}
