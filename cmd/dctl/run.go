package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"detcorr/internal/core"
	"detcorr/internal/explore"
	"detcorr/internal/fault"
	"detcorr/internal/flow"
	"detcorr/internal/gcl"
	"detcorr/internal/runtime"
	"detcorr/internal/serve/api"
	"detcorr/internal/spec"
	"detcorr/internal/state"
	"detcorr/internal/verify"
)

// setParallelism applies the -j flag: it sets the process-wide default
// worker count for state-space exploration, which every Build reached
// through the check/detects/corrects call chains inherits. 0 means all
// CPUs, mirroring make -j.
func setParallelism(j int) {
	if j == 0 {
		j = explore.AutoParallelism()
	}
	explore.SetDefaultParallelism(j)
}

// spillFlags registers the out-of-core exploration flags shared by the
// exploring subcommands and returns the function that applies them after
// parsing. A -mem-budget makes every exploration reached through the
// command spill its visited set and frontier to disk rather than outgrow
// the budget; explorations that fit never touch disk, so the flag is a
// ceiling, not a mode switch.
func spillFlags(fs *flag.FlagSet) func() error {
	budget := fs.String("mem-budget", "", "exploration memory budget, e.g. 512K, 64M, 2G (empty = in-RAM engines)")
	dir := fs.String("spill-dir", "", "directory for spill files (default: the OS temp directory)")
	return func() error {
		if *budget == "" {
			return nil
		}
		b, err := explore.ParseByteSize(*budget)
		if err != nil {
			return usageErrorf("-mem-budget: %v", err)
		}
		explore.SetDefaultSpill(b, *dir)
		return nil
	}
}

func run(args []string, out, errOut io.Writer) error {
	if len(args) == 0 {
		return usageErrorf("usage: dctl <info|lint|flow|prove|check|detects|corrects|deadlock|verdict|simulate|watch> <file.gcl> [flags]")
	}
	cmd := args[0]
	switch cmd {
	case "info":
		return runInfo(args[1:], out, errOut)
	case "lint":
		return runLint(args[1:], out)
	case "flow":
		return runFlow(args[1:], out, errOut)
	case "prove":
		return runProve(args[1:], out, errOut)
	case "check":
		return runCheck(args[1:], out, errOut)
	case "detects", "corrects":
		return runComponent(cmd, args[1:], out, errOut)
	case "deadlock":
		return runDeadlock(args[1:], out, errOut)
	case "verdict":
		return runVerdict(args[1:], out, errOut)
	case "simulate":
		return runSimulate(args[1:], out, errOut)
	case "watch":
		return runWatch(args[1:], out, errOut)
	default:
		return usageErrorf("unknown command %q (want info, lint, flow, prove, check, detects, corrects, deadlock, verdict, simulate, or watch)", cmd)
	}
}

// loadFile compiles the GCL source at the path given as the flag set's
// first positional argument. The dclint analyzers run on every loaded
// file before it is compiled: warnings go to errOut, error-severity
// findings abort the command. Every subcommand that loads a file accepts
// -noslice to disable the slice rung of the decision ladder.
func loadFile(fs *flag.FlagSet, args []string, errOut io.Writer) (*gcl.File, error) {
	noslice := fs.Bool("noslice", false, "disable the cone-of-influence slice rung")
	if err := fs.Parse(argsAfterFile(args)); err != nil {
		return nil, withCode(exitUsage, err)
	}
	flow.SetEnabled(!*noslice)
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return nil, usageErrorf("missing <file.gcl> argument")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return nil, usageErrorf("%v", err)
	}
	ast, err := gcl.Parse(string(src))
	if err != nil {
		return nil, withCode(exitParse, err)
	}
	if err := lintBeforeRun(args[0], string(src), ast, errOut); err != nil {
		return nil, err
	}
	f, err := gcl.Compile(ast)
	if err != nil {
		return nil, withCode(exitParse, err)
	}
	f.Src = string(src)
	return f, nil
}

// ladder prepares a loaded file for the decision ladder. A rung that
// cannot be set up for the file (the prover cannot derive a system, the
// compiled write sets disagree with the analysis) is reported on errOut
// when it is first tried, and skipped; the command still decides.
func ladder(f *gcl.File, errOut io.Writer) *verify.Program {
	return verify.New(f, func(err error) { fmt.Fprintf(errOut, "dctl: %v\n", err) })
}

// argsAfterFile drops the leading positional file argument so flags can
// follow it.
func argsAfterFile(args []string) []string {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return args[1:]
	}
	return args
}

// predOf resolves a named predicate flag; empty means state.True.
func predOf(f *gcl.File, name, flagName string) (state.Predicate, error) {
	if name == "" {
		return state.True, nil
	}
	p, ok := f.Pred(name)
	if !ok {
		return state.Predicate{}, usageErrorf("-%s: no predicate %q declared in the file", flagName, name)
	}
	return p, nil
}

func runInfo(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	f, err := loadFile(fs, args, errOut)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "program %s\n", f.Name)
	n, _ := f.Schema.NumStates()
	fmt.Fprintf(out, "  state space: %d states over %d variables %s\n", n, f.Schema.NumVars(), f.Schema)
	fmt.Fprintf(out, "  actions (%d):\n", f.Program.NumActions())
	for _, name := range f.Program.ActionNames() {
		fmt.Fprintf(out, "    %s\n", name)
	}
	fmt.Fprintf(out, "  faults (%d):\n", len(f.Faults.Actions))
	for _, a := range f.Faults.Actions {
		fmt.Fprintf(out, "    %s\n", a.Name)
	}
	fmt.Fprintf(out, "  predicates (%d):\n", len(f.Preds))
	names := make([]string, 0, len(f.Preds))
	for name := range f.Preds {
		names = append(names, name)
	}
	sortStrings(names)
	for _, name := range names {
		count, err := state.CountStates(f.Schema, f.Preds[name])
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "    %s (%d states)\n", name, count)
	}
	return nil
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func parseKind(s string) (fault.Kind, error) {
	switch s {
	case "failsafe", "fail-safe":
		return fault.FailSafe, nil
	case "nonmasking":
		return fault.Nonmasking, nil
	case "masking":
		return fault.Masking, nil
	default:
		return 0, usageErrorf("unknown tolerance kind %q (want failsafe, nonmasking, or masking)", s)
	}
}

func runCheck(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	kindFlag := fs.String("kind", "masking", "tolerance kind: failsafe, nonmasking, masking")
	invFlag := fs.String("invariant", "", "invariant predicate S (required)")
	recFlag := fs.String("recovery", "", "recovery predicate R for nonmasking (default: the invariant)")
	goalFlag := fs.String("goal", "", "liveness goal predicate (eventually goal)")
	neverFlag := fs.String("never", "", "safety predicate: states satisfying it are forbidden")
	jFlag := fs.Int("j", 1, "exploration workers; 0 means all CPUs")
	applySpill := spillFlags(fs)
	f, err := loadFile(fs, args, errOut)
	if err != nil {
		return err
	}
	setParallelism(*jFlag)
	if err := applySpill(); err != nil {
		return err
	}
	kind, err := parseKind(*kindFlag)
	if err != nil {
		return err
	}
	if *invFlag == "" {
		return usageErrorf("-invariant is required")
	}
	inv, err := predOf(f, *invFlag, "invariant")
	if err != nil {
		return err
	}
	rec := inv
	if *recFlag != "" {
		if rec, err = predOf(f, *recFlag, "recovery"); err != nil {
			return err
		}
	}
	prob, err := buildProblem(f, *goalFlag, *neverFlag)
	if err != nil {
		return err
	}
	rep := fault.Check(kind, f.Program, f.Faults, prob, inv, rec)
	fmt.Fprintln(out, rep.String())
	if !rep.OK() {
		return errors.New("check failed")
	}
	return nil
}

func buildProblem(f *gcl.File, goal, never string) (spec.Problem, error) {
	prob := spec.Problem{Name: f.Name + ".spec", Safety: spec.TrueSafety}
	if never != "" {
		bad, err := predOf(f, never, "never")
		if err != nil {
			return prob, err
		}
		prob.Safety = spec.NeverState("never "+never, bad)
	}
	if goal != "" {
		g, err := predOf(f, goal, "goal")
		if err != nil {
			return prob, err
		}
		prob.Live = []spec.LeadsTo{{Name: "eventually " + goal, P: state.True, Q: g}}
	}
	return prob, nil
}

func runComponent(cmd string, args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	zFlag := fs.String("z", "", "witness predicate Z (required)")
	xFlag := fs.String("x", "", "detection/correction predicate X (required)")
	fromFlag := fs.String("from", "", "predicate U the relation is refined from (default true)")
	tolFlag := fs.String("tolerant", "", "also check as an F-tolerant component: failsafe, nonmasking, or masking")
	jFlag := fs.Int("j", 1, "exploration workers; 0 means all CPUs")
	applySpill := spillFlags(fs)
	f, err := loadFile(fs, args, errOut)
	if err != nil {
		return err
	}
	setParallelism(*jFlag)
	if err := applySpill(); err != nil {
		return err
	}
	if *zFlag == "" || *xFlag == "" {
		return usageErrorf("-z and -x are required")
	}
	z, err := predOf(f, *zFlag, "z")
	if err != nil {
		return err
	}
	x, err := predOf(f, *xFlag, "x")
	if err != nil {
		return err
	}
	u, err := predOf(f, *fromFlag, "from")
	if err != nil {
		return err
	}
	header := core.Corrector{Name: f.Name, C: f.Program, Z: z, X: x, U: u}.String()
	if cmd == "detects" {
		header = core.Detector{Name: f.Name, D: f.Program, Z: z, X: x, U: u}.String()
	}
	var kind fault.Kind
	if *tolFlag != "" {
		if kind, err = parseKind(*tolFlag); err != nil {
			return err
		}
	}
	// One decision covers both halves: the ladder decides the fault-free
	// half once, and a failure of the tolerant half carries its prefix.
	req := api.Request{Program: f.Src, Check: cmd, Z: *zFlag, X: *xFlag, From: *fromFlag, Tolerant: *tolFlag}
	resp, _, err := verify.Decide(context.Background(), ladder(f, errOut), req)
	if err != nil {
		return err
	}
	tolPrefix := kind.String() + "-tolerant: "
	tolFailed := *tolFlag != "" && strings.HasPrefix(resp.Detail, tolPrefix)
	if resp.Verdict == api.VerdictFails && !tolFailed {
		fmt.Fprintf(out, "%s: FAILS\n  %s\n", header, resp.Detail)
		return errors.New("check failed")
	}
	fmt.Fprintf(out, "%s: HOLDS\n", header)
	if *tolFlag == "" {
		return nil
	}
	if resp.Verdict == api.VerdictFails {
		fmt.Fprintf(out, "%s %s-tolerant: FAILS\n  %s\n", header, kind, strings.TrimPrefix(resp.Detail, tolPrefix))
		return errors.New("tolerant check failed")
	}
	fmt.Fprintf(out, "%s %s-tolerant: HOLDS\n", header, kind)
	return nil
}

// runDeadlock hunts for a reachable deadlock — a state with no enabled
// program action — by streaming over the compiled kernel with early exit:
// no transition graph is assembled, so the hunt stops the moment a witness
// is found. With -faults the file's fault class is composed in (fault
// actions unfair), matching the maximality rule of p ‖ F: fault actions
// never rescue a deadlocked program.
func runDeadlock(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("deadlock", flag.ContinueOnError)
	fromFlag := fs.String("from", "", "initial predicate to search from (default true)")
	faultsFlag := fs.Bool("faults", false, "compose the file's fault class in")
	applySpill := spillFlags(fs)
	f, err := loadFile(fs, args, errOut)
	if err != nil {
		return err
	}
	if err := applySpill(); err != nil {
		return err
	}
	from, err := predOf(f, *fromFlag, "from")
	if err != nil {
		return err
	}
	prog := f.Program
	var fairMask []bool
	if *faultsFlag && !f.Faults.Empty() {
		if prog, fairMask, err = fault.Compose(f.Program, f.Faults); err != nil {
			return err
		}
	}
	trace, found, err := explore.FindDeadlock(prog, from, explore.ScanOptions{Fair: fairMask})
	if err != nil {
		return err
	}
	if !found {
		fmt.Fprintf(out, "%s: no reachable deadlock\n", prog.Name())
		return nil
	}
	fmt.Fprintf(out, "%s: deadlock reached in %d steps\n", prog.Name(), len(trace)-1)
	for i, s := range trace {
		fmt.Fprintf(out, "  %3d %s\n", i, s)
	}
	return errors.New("deadlock found")
}

func runSimulate(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	initFlag := fs.String("init", "", "initial state, e.g. \"present=1,val=0\" (missing variables are 0)")
	stepsFlag := fs.Int("steps", 100, "maximum steps")
	seedFlag := fs.Int64("seed", 1, "random seed")
	faultsFlag := fs.Int("faults", 0, "fault occurrence budget")
	goalFlag := fs.String("goal", "", "eventually-goal monitor predicate")
	neverFlag := fs.String("never", "", "never-state monitor predicate")
	traceFlag := fs.Bool("trace", false, "print the visited states")
	f, err := loadFile(fs, args, errOut)
	if err != nil {
		return err
	}
	initial, err := parseInit(f.Schema, *initFlag)
	if err != nil {
		return err
	}
	var mons []runtime.Monitor
	if *neverFlag != "" {
		bad, err := predOf(f, *neverFlag, "never")
		if err != nil {
			return err
		}
		mons = append(mons, runtime.NewSafetyMonitor(spec.NeverState("never "+*neverFlag, bad)))
	}
	if *goalFlag != "" {
		g, err := predOf(f, *goalFlag, "goal")
		if err != nil {
			return err
		}
		mons = append(mons, &runtime.EventuallyMonitor{Goal: g})
	}
	eng, err := runtime.New(f.Program, runtime.Config{
		Seed:        *seedFlag,
		MaxSteps:    *stepsFlag,
		Faults:      f.Faults,
		FaultBudget: *faultsFlag,
		KeepTrace:   *traceFlag,
	}, mons...)
	if err != nil {
		return err
	}
	res, err := eng.Run(initial)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "steps=%d faults=%d deadlocked=%v final=%s\n",
		res.Steps, res.FaultsInjected, res.Deadlocked, res.Final)
	if *traceFlag {
		for i, s := range res.Trace {
			fmt.Fprintf(out, "  %3d %s\n", i, s)
		}
	}
	for name, verr := range res.Violations {
		fmt.Fprintf(out, "VIOLATION %s: %v\n", name, verr)
	}
	if len(res.Violations) > 0 {
		return errors.New("monitor violations")
	}
	return nil
}

func parseInit(sch *state.Schema, s string) (state.State, error) {
	values := map[string]int{}
	if s != "" {
		for _, part := range strings.Split(s, ",") {
			kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
			if len(kv) != 2 {
				return state.State{}, fmt.Errorf("-init: bad assignment %q (want name=value)", part)
			}
			v, err := strconv.Atoi(kv[1])
			if err != nil {
				// Allow symbolic enum values.
				if i, ok := sch.IndexOf(kv[0]); ok {
					if ev, found := sch.Var(i).Domain.ValueOf(kv[1]); found {
						values[kv[0]] = ev
						continue
					}
				}
				return state.State{}, fmt.Errorf("-init: bad value %q for %q", kv[1], kv[0])
			}
			values[kv[0]] = v
		}
	}
	return state.FromMap(sch, values)
}
