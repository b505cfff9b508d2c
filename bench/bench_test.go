package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"detcorr/internal/explore"
)

// streamBytes renders the first requests a workload would send for seed,
// through the same generators the runs use.
func streamBytes(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	switch workload {
	case "oneshot-mix", "large-space":
		items := oneshotItems()
		if workload == "large-space" {
			items = largeItems()
		}
		p := newCLIPlan(rng, "work", items)
		for _, path := range p.order {
			b.WriteString(path + "\n" + p.files[path])
		}
		for r := 0; r < 3; r++ {
			for _, c := range p.round(rng) {
				b.WriteString(strings.Join(c.args, " ") + "\n")
			}
		}
	case "served-mixed":
		s := newServedStream(rng)
		for _, r := range s.take(3 * s.roundLen()) {
			b.Write(r.body)
		}
	case "edit-loop":
		s := newEditStream(rng)
		for r := 0; r < 2; r++ {
			for _, save := range s.round() {
				b.WriteString(save.old + save.new)
			}
		}
	default:
		t.Fatalf("no stream for %s", workload)
	}
	return b.Bytes()
}

func TestRequestStreamIsSeeded(t *testing.T) {
	for _, w := range workloadNames() {
		a, b := streamBytes(t, w, 7), streamBytes(t, w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 made two different request streams", w)
		}
		if bytes.Equal(a, streamBytes(t, w, 8)) {
			t.Errorf("%s: seeds 7 and 8 made the same request stream", w)
		}
	}
}

func TestSupportedPercentile(t *testing.T) {
	for n, want := range map[int]float64{9: 0, 99: 0, 100: 90, 999: 90, 1000: 99, 9999: 99, 10000: 99.9} {
		if got := supportedPercentile(n); got != want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 5.5, 0.9: 9.1, 1: 10} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) in Python: [2.75, 5.5, 8.25].
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if got := quantile([]float64{1, math.Inf(1)}, 0); got != 1 {
		t.Errorf("quantile with a failure beyond it = %g, want 1", got)
	}
}

// fakeClock is a timeline that moves only when the code under test says
// so: SleepUntil jumps to the due time, and the service advances it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(_ context.Context, t time.Time) error {
	if t.After(c.now) {
		c.now = t
	}
	return nil
}

func TestOpenLoopChargesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	service := []time.Duration{5, 25, 5, 5, 30, 5} // ms
	errFail := errors.New("refused")
	res := runStep(context.Background(), clk, 1, 100, len(service), func(_ context.Context, i int) error {
		clk.now = clk.now.Add(service[i] * time.Millisecond)
		if i == 3 {
			return errFail
		}
		return nil
	})
	// Due every 10 ms. Request 1 runs 10-35, so 2 starts 15 ms late, 3
	// 10 ms late, 4 5 ms late (to 75), and 5 25 ms late.
	wantLat := []float64{5, 25, 20, math.Inf(1), 35, 30}
	wantWait := []float64{0, 0, 15, 10, 5, 25}
	for i := range service {
		if res.lat[i] != wantLat[i] || res.wait[i] != wantWait[i] {
			t.Errorf("request %d: latency %g wait %g, want %g and %g", i, res.lat[i], res.wait[i], wantLat[i], wantWait[i])
		}
	}
	if res.lateness != 25*time.Millisecond {
		t.Errorf("lateness at the end = %v, want 25ms", res.lateness)
	}
	if got := res.ok(); len(got) != 5 {
		t.Errorf("ok() kept %d latencies, want the 5 that succeeded", len(got))
	}
}

func TestCompareVerdict(t *testing.T) {
	bound := 0.1
	parent := []float64{100, 101, 99, 102, 98, 100, 101, 99, 100, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, p := range parent {
			out[i] = p * f
		}
		return out
	}
	cases := []struct {
		name   string
		change []float64
		want   string
	}{
		{"faster", scaled(0.8), "improved"},
		{"slower", scaled(1.2), "worse"},
		{"same", scaled(1.0), "unchanged"},
		{"too few pairs", scaled(0.8)[:9], "unresolved (fewer than 10 pairs)"},
	}
	for _, c := range cases {
		if got := verdict("lower", &bound, parent, c.change); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCatalogueMatchesGolden(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, it := range allItems() {
		seen[it.id()] = true
		if _, ok := g.Verdicts[it.id()]; !ok {
			t.Errorf("%s has no golden verdict", it.id())
		}
	}
	for id := range g.Verdicts {
		if !seen[id] {
			t.Errorf("golden verdict %s matches no catalogue item", id)
		}
	}
}

// fastItems are the catalogue items that decide in milliseconds.
func fastItems() []item {
	var out []item
	for _, it := range oneshotItems() {
		if r, ok := it.prog.(ring); ok && (r.n > 4 || it.req.Check != "closure") {
			continue
		}
		out = append(out, it)
	}
	return out
}

func TestReplayAgreesWithPipeline(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(true)
	r := &replayer{ctx: context.Background(), rec: rec}
	for _, it := range fastItems() {
		explore.ResetCache()
		req := it.render(naming{name: "replay", prefix: "x"})
		u, err := r.load(req.Program)
		if err != nil {
			t.Fatalf("%s: %v", it.id(), err)
		}
		v, rung, err := r.decide(u, req)
		if err != nil {
			t.Fatalf("%s: %v", it.id(), err)
		}
		if err := g.check(it.id(), v); err != nil {
			t.Errorf("replay (rung %s): %v", rung, err)
		}
	}
	if len(rec.spans) == 0 {
		t.Error("the traced replay recorded no spans")
	}
}

// TestSmokeAllWorkloads runs every workload at a tiny scale against
// freshly built binaries and checks that every verdict was right and
// every end-to-end metric was reported.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dctl and dcserved")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := findRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bin := t.TempDir()
	if _, err := buildBinaries(ctx, root, bin); err != nil {
		t.Fatal(err)
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func(context.Context, *env) (*report, error){
		"oneshot-mix":  func(ctx context.Context, e *env) (*report, error) { return runCLI(ctx, e, fastItems()[:4]) },
		"large-space":  func(ctx context.Context, e *env) (*report, error) { return runCLI(ctx, e, largeItems()[:1]) },
		"served-mixed": runServed,
		"edit-loop":    runEditLoop,
	}
	for _, w := range workloadNames() {
		e := &env{
			work: t.TempDir(),
			dctl: filepath.Join(bin, "dctl"), dcserved: filepath.Join(bin, "dcserved"),
			seed: 1, rng: rand.New(rand.NewSource(1)), seconds: time.Second, golden: g,
		}
		rep, err := runs[w](ctx, e)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed: %v", w, rep.Correct, rep.Failed, rep.Attempted, rep.problems)
		}
		for name, m := range spec {
			if m.Bound == nil {
				continue // per-layer
			}
			if v, ok := rep.Metrics[name]; !ok || !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", w, name, v)
			}
		}
	}
}
