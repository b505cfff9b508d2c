package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"detcorr/internal/explore/difftest"
	"detcorr/internal/serve/api"
	"detcorr/internal/serve/corpus"
)

// The catalogue is every question the benchmark asks: a program (one of
// the paper's systems, a corpus source, or a token ring with an optional
// edit) and a property. Each question has a stable id, the key of its
// golden verdict. The seed changes only the surface of a rendered program
// — its declared name and the ring's variable names — never its meaning,
// so one golden verdict serves every seed.

// naming is the seeded surface of a rendered program.
type naming struct {
	name   string // declared program name
	prefix string // token-ring counter prefix
}

// program is one system the catalogue can render.
type program interface {
	key() string
	source(nm naming) string
}

// fixedProgram is a source the repository already ships: a difftest
// example system or a dcserved corpus program.
type fixedProgram struct {
	name, src string
}

func (p fixedProgram) key() string             { return p.name }
func (p fixedProgram) source(nm naming) string { return rename(p.src, nm.name) }

// corpusPrograms names the corpus sources, keyed by their text.
var corpusPrograms = map[string]fixedProgram{
	corpus.Ring3:     {"corpus-ring3", corpus.Ring3},
	corpus.Memaccess: {"corpus-memaccess", corpus.Memaccess},
	corpus.Countdown: {"corpus-countdown", corpus.Countdown},
}

var programLine = regexp.MustCompile(`(?m)^program \S+`)

// rename replaces the declared program name. An empty name keeps the
// source byte for byte, so corpus requests stay verdict-cache hits.
func rename(src, name string) string {
	if name == "" {
		return src
	}
	return programLine.ReplaceAllLiteralString(src, "program "+name)
}

// Edit shapes of the edit-loop workload. Each is one save in an editor
// session on a token ring; param selects the action or constant touched.
const (
	editNone         = ""
	editGuardNoop    = "guard-noop"     // move_i's guard g becomes !(!g)
	editGuardNarrow  = "guard-narrow"   // move_i also requires its predecessor non-zero
	editAssignChange = "assign-change"  // the bottom machine steps by param
	editActionAdd    = "action-add"     // a duplicate of move_i under another name
	editActionRemove = "action-remove"  // move_i is deleted
	editWatchdog     = "watchdog-guard" // the watchdog fires at param (outside Legit's cone)
	editComment      = "comment-only"   // one more comment line
)

// editParams lists the parameters each shape takes on a ring of n
// machines with k counter values.
func editParams(shape string, n, k int) []int {
	span := func(lo, hi int) []int {
		var ps []int
		for i := lo; i <= hi; i++ {
			ps = append(ps, i)
		}
		return ps
	}
	switch shape {
	case editGuardNoop, editGuardNarrow, editActionAdd, editActionRemove:
		return span(1, n-1)
	case editAssignChange:
		// A step sharing a factor with k stops the ring converging; with
		// k prime every step keeps it converging. Either way, all the
		// parameters one ring takes give the same verdicts.
		var shared, all []int
		for c := 2; c < k; c++ {
			all = append(all, c)
			if gcd(c, k) > 1 {
				shared = append(shared, c)
			}
		}
		if len(shared) > 0 {
			return shared
		}
		return all
	case editWatchdog:
		return span(1, k-1)
	case editComment:
		return []int{0}
	}
	return nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// editShapes lists the shapes that apply to a ring.
func editShapes(watched bool) []string {
	shapes := []string{editGuardNoop, editGuardNarrow, editAssignChange, editActionAdd, editActionRemove, editComment}
	if watched {
		shapes = append(shapes, editWatchdog)
	}
	return shapes
}

// ring is Dijkstra's K-state token ring with n machines and counters in
// 0..k-1, optionally with an unrelated watchdog detector composed in
// parallel, and optionally with one edit applied. Legit holds when exactly
// one machine is privileged; the fault class corrupts any one counter.
type ring struct {
	n, k    int
	watched bool
	shape   string
	param   int
}

func (r ring) key() string {
	s := fmt.Sprintf("ring%dk%d", r.n, r.k)
	if r.watched {
		s = "w" + s
	}
	if r.shape != editNone {
		s += fmt.Sprintf("+%s=%d", r.shape, r.param)
	}
	return s
}

func (r ring) source(nm naming) string {
	v := func(i int) string { return fmt.Sprintf("%s%d", nm.prefix, i) }
	priv := func(i int) string {
		if i == 0 {
			return fmt.Sprintf("(%s == %s)", v(0), v(r.n-1))
		}
		return fmt.Sprintf("(%s != %s)", v(i), v(i-1))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n\n", nm.name)
	for i := 0; i < r.n; i++ {
		fmt.Fprintf(&b, "var %s : 0..%d\n", v(i), r.k-1)
	}
	b.WriteString("\npred Legit ::\n")
	for i := 0; i < r.n; i++ {
		var terms []string
		for j := 0; j < r.n; j++ {
			if j == i {
				terms = append(terms, priv(j))
			} else {
				terms = append(terms, "!"+priv(j))
			}
		}
		sep := " |"
		if i == r.n-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  ( %s )%s\n", strings.Join(terms, " & "), sep)
	}
	b.WriteString("\n")
	if r.shape == editComment {
		b.WriteString("# The bottom machine passes the token by stepping its counter.\n")
	}
	step := 1
	if r.shape == editAssignChange {
		step = r.param
	}
	fmt.Fprintf(&b, "action move0 :: %s == %s -> %s := (%s + %d) %% %d\n", v(0), v(r.n-1), v(0), v(0), step, r.k)
	for i := 1; i < r.n; i++ {
		if r.shape == editActionRemove && r.param == i {
			continue
		}
		guard := fmt.Sprintf("%s != %s", v(i), v(i-1))
		if r.param == i {
			switch r.shape {
			case editGuardNoop:
				guard = fmt.Sprintf("!(!(%s))", guard)
			case editGuardNarrow:
				guard = fmt.Sprintf("%s & %s != 0", guard, v(i-1))
			}
		}
		fmt.Fprintf(&b, "action move%d :: %s -> %s := %s\n", i, guard, v(i), v(i-1))
	}
	if r.shape == editActionAdd {
		i := r.param
		fmt.Fprintf(&b, "action nudge%d :: %s != %s -> %s := %s\n", i, v(i), v(i-1), v(i), v(i-1))
	}
	b.WriteString("\n")
	for i := 0; i < r.n; i++ {
		fmt.Fprintf(&b, "fault corrupt%d :: true -> %s := ?\n", i, v(i))
	}
	if r.watched {
		at := 0
		if r.shape == editWatchdog {
			at = r.param
		}
		fmt.Fprintf(&b, `
var alarm : bool
var wt    : 0..3

pred Seen :: alarm

detector mon : alarm, wt

action mon.tick  :: true -> wt := (wt + 1) %% 4
action mon.watch :: %s == %d & !alarm -> alarm := true
action mon.reset :: alarm & %s != %d -> alarm := false
`, v(0), at, v(0), at)
	}
	return b.String()
}

// item is one catalogue question. req carries the property; its Program
// field is filled in when the item is rendered under a seeded naming.
type item struct {
	prog  program
	label string
	req   api.Request
}

func (it item) id() string { return it.prog.key() + "/" + it.label }

// render returns the full request for the item under nm.
func (it item) render(nm naming) api.Request {
	req := it.req
	req.Program = it.prog.source(nm)
	return req
}

// Request shorthands, one per property shape the catalogue uses.
func closure(inv string) api.Request {
	return api.Request{Check: api.CheckClosure, Invariant: inv}
}

func convergence(inv, goal string) api.Request {
	return api.Request{Check: api.CheckConvergence, Invariant: inv, Goal: goal}
}

func component(check, z, x, from, tolerant string) api.Request {
	return api.Request{Check: check, Z: z, X: x, From: from, Tolerant: tolerant}
}

func deadlock(from string, faults bool) api.Request {
	return api.Request{Check: api.CheckDeadlock, From: from, Faults: faults}
}

// oneshotItems is the oneshot-mix catalogue: the paper's memory-access
// systems (Figures 1-3), TMR, Byzantine agreement, a countdown, and token
// rings of 4 to 6 machines; all six checks, all three tolerance kinds, and
// deadlock hunts with and without faults. The last five items are the
// slow class: ring-4 corrector checks and a ring-4 convergence proof, each
// about a second in the prover's rank synthesis. They are 1/6 of the
// items, so p90 falls inside the slow class and p50 among the rest.
func oneshotItems() []item {
	// pm is the corpus's memaccess, the same source dctl's testdata holds.
	pf := fixedProgram{"memaccess_pf", difftest.MemaccessPF}
	pn := fixedProgram{"memaccess_pn", difftest.MemaccessPN}
	pm := fixedProgram{"memaccess_pm", corpus.Memaccess}
	tmr := fixedProgram{"tmr", difftest.TMRSource}
	byz := fixedProgram{"byzagree", difftest.ByzAgreeSource}
	cd := fixedProgram{"countdown", corpus.Countdown}
	r4, r5, r6 := ring{n: 4, k: 4}, ring{n: 5, k: 5}, ring{n: 6, k: 6}
	w6 := ring{n: 6, k: 6, watched: true}
	return []item{
		{pf, "detects-failsafe", component(api.CheckDetects, "Z1p", "X1", "U1", "failsafe")},
		{pf, "deadlock-faults", deadlock("", true)},
		{pf, "prove-safeness", api.Request{Check: api.CheckProve, Z: "Z1p", X: "X1", From: "U1"}},
		{pn, "corrects-nonmasking", component(api.CheckCorrects, "X1", "X1", "", "nonmasking")},
		{pn, "corrects-masking", component(api.CheckCorrects, "X1", "X1", "", "masking")},
		{pn, "deadlock-faults", deadlock("", true)},
		{pm, "detects-masking", component(api.CheckDetects, "Z1p", "X1", "U1", "masking")},
		{pm, "detects-datacorrect", component(api.CheckDetects, "Z1p", "DataCorrect", "U1", "")},
		{pm, "convergence", convergence("U1", "DataCorrect")},
		{pm, "prove-closure-span", api.Request{Check: api.CheckProve, Invariant: "S", Span: "auto"}},
		{pm, "deadlock-faults", deadlock("", true)},
		{tmr, "closure", closure("S")},
		{tmr, "convergence", convergence("T", "OutCorrect")},
		{tmr, "detects-wit", component(api.CheckDetects, "Wit", "OutCorrect", "T", "")},
		{tmr, "deadlock-faults", deadlock("", true)},
		{byz, "closure", closure("S")},
		{byz, "corrects", component(api.CheckCorrects, "Done", "Done", "S", "")},
		{byz, "deadlock-faults", deadlock("", true)},
		{cd, "prove-convergence", api.Request{Check: api.CheckProve, Goal: "Zero"}},
		{cd, "deadlock", deadlock("Top", false)},
		{cd, "detects", component(api.CheckDetects, "Zero", "Zero", "", "")},
		{r4, "closure", closure("Legit")},
		{r5, "convergence", convergence("true", "Legit")},
		{r6, "deadlock", deadlock("", false)},
		{r5, "deadlock-faults", deadlock("", true)},
		{w6, "closure", closure("Legit")},
		{r4, "corrects", component(api.CheckCorrects, "Legit", "Legit", "", "")},
		{r4, "corrects-nonmasking", component(api.CheckCorrects, "Legit", "Legit", "", "nonmasking")},
		{r4, "corrects-masking", component(api.CheckCorrects, "Legit", "Legit", "", "masking")},
		{r4, "corrects-failsafe", component(api.CheckCorrects, "Legit", "Legit", "", "failsafe")},
		{r4, "prove-convergence", api.Request{Check: api.CheckProve, Goal: "Legit"}},
	}
}

// largeItems is the large-space catalogue: token rings of 6 and 7
// machines whose verdicts are decided by exploration and the post-graph
// algorithms — deadlock scans of 0.8M-2.1M states (two with the fault
// class composed in), a watched-ring closure scan, and two convergence
// checks whose cost is the liveness pass.
func largeItems() []item {
	r7, w7 := ring{n: 7, k: 7}, ring{n: 7, k: 7, watched: true}
	return []item{
		{r7, "deadlock", deadlock("", false)},
		{r7, "deadlock-faults", deadlock("", true)},
		{w7, "closure", closure("Legit")},
		{ring{n: 6, k: 6, watched: true}, "deadlock-faults", deadlock("", true)},
		{ring{n: 7, k: 8}, "deadlock", deadlock("", false)},
		{ring{n: 6, k: 8}, "convergence", convergence("true", "Legit")},
		{ring{n: 6, k: 7, watched: true}, "convergence", convergence("true", "Legit")},
	}
}

// corpusItems returns the dcserved corpus as catalogue items, in corpus
// order.
func corpusItems() []item {
	var items []item
	for _, c := range corpus.Items() {
		p, ok := corpusPrograms[c.Request.Program]
		if !ok {
			panic("bench: corpus item " + c.Name + " has an unknown source")
		}
		req := c.Request
		req.Program = ""
		items = append(items, item{p, c.Name, req})
	}
	return items
}

// novelRingItems are the ring questions the served-mixed workload sends
// as never-seen programs: closure, convergence and deadlock-freedom of
// rings of 4 and 5 machines with K = N and K = N+1, all of which hold.
func novelRingItems() []item {
	var items []item
	for _, n := range []int{4, 5} {
		for _, k := range []int{n, n + 1} {
			r := ring{n: n, k: k}
			items = append(items,
				item{r, "closure", closure("Legit")},
				item{r, "convergence", convergence("true", "Legit")},
				item{r, "deadlock", deadlock("", false)})
		}
	}
	return items
}

// editChecks are the three verdicts an edit-loop save waits for.
func editChecks(r ring) []item {
	return []item{
		{r, "closure", closure("Legit")},
		{r, "convergence", convergence("true", "Legit")},
		{r, "deadlock", deadlock("", false)},
	}
}

// editBase is a program the edit-loop workload edits, with how many
// edits of each shape one round makes to it.
type editBase struct {
	ring
	perShape int
}

// editBases are ring 6 and watched ring 5. Ring 6 takes two edits per
// shape so that its saves are the majority of a round: p50 then falls
// among them and p90 among the costlier watched-ring saves.
func editBases() []editBase {
	return []editBase{{ring{n: 6, k: 6}, 2}, {ring{n: 5, k: 5, watched: true}, 1}}
}

// allItems is every catalogue question, each once: the golden catalogue
// holds exactly these ids.
func allItems() []item {
	seen := map[string]bool{}
	var out []item
	add := func(items ...item) {
		for _, it := range items {
			if !seen[it.id()] {
				seen[it.id()] = true
				out = append(out, it)
			}
		}
	}
	add(oneshotItems()...)
	add(largeItems()...)
	add(corpusItems()...)
	add(novelRingItems()...)
	for _, b := range editBases() {
		add(editChecks(b.ring)...)
		for _, shape := range editShapes(b.watched) {
			for _, p := range editParams(shape, b.n, b.k) {
				e := b.ring
				e.shape, e.param = shape, p
				add(editChecks(e)...)
			}
		}
	}
	return out
}

// namer hands out the seeded surface names of one run.
type namer struct {
	rng    *rand.Rand
	prefix string
	tag    string
	next   int
}

var ringPrefixes = []string{"x", "c", "m", "q", "h"}

func newNamer(rng *rand.Rand) *namer {
	return &namer{
		rng:    rng,
		prefix: ringPrefixes[rng.Intn(len(ringPrefixes))],
		tag:    fmt.Sprintf("s%04d", rng.Intn(10000)),
	}
}

// stable names a program that keeps its name for the whole run.
func (n *namer) stable(p program) naming {
	return naming{name: sanitize(p.key()) + "_" + n.tag, prefix: n.prefix}
}

// fresh names a program never sent before in this run.
func (n *namer) fresh(p program) naming {
	n.next++
	return naming{name: fmt.Sprintf("%s_%s_%d", sanitize(p.key()), n.tag, n.next), prefix: n.prefix}
}

// sanitize turns a catalogue key into a GCL identifier.
func sanitize(key string) string {
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' {
			return r
		}
		return '_'
	}, key)
}
