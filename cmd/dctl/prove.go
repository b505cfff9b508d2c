package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"detcorr/internal/gcl"
	"detcorr/internal/prove"
)

// runProve is the exploration-free entry point: it parses and lints the
// file but never compiles it (compilation rejects state spaces beyond the
// 2^62-state index, and bounds-checks each action over the product of the
// domains its guard and right-hand sides read), so its cost is independent
// of the state count.
func runProve(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("prove", flag.ContinueOnError)
	invFlag := fs.String("invariant", "", "prove DC100 closure of this predicate under the program actions")
	spanFlag := fs.String("span", "", "with -invariant: prove DC101 closure of this span predicate under program and fault actions ('auto' infers one)")
	zFlag := fs.String("z", "", "with -x: prove DC102 detector safeness and stability of Z => X")
	xFlag := fs.String("x", "", "detection predicate X for -z")
	fromFlag := fs.String("from", "", "predicate U for -z/-x and -converge (default true)")
	convFlag := fs.String("converge", "", "prove DC103 convergence from U to this goal predicate")
	rankFlag := fs.String("rank", "", "comma-separated lexicographic ranking function for -converge (default: synthesize)")
	jsonFlag := fs.Bool("json", false, "emit the reports as JSON")
	if err := fs.Parse(argsAfterFile(args)); err != nil {
		return withCode(exitUsage, err)
	}
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return usageErrorf("missing <file.gcl> argument")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return usageErrorf("%v", err)
	}
	ast, err := gcl.Parse(string(src))
	if err != nil {
		return withCode(exitParse, err)
	}
	if err := lintBeforeRun(args[0], string(src), ast, errOut); err != nil {
		return err
	}
	sys, err := prove.NewSystem(ast)
	if err != nil {
		return withCode(exitParse, err)
	}

	u := *fromFlag
	if u == "" {
		u = "true"
	}
	var reports []*prove.Report
	if *invFlag != "" {
		rep, err := prove.ProveClosure(sys, *invFlag)
		if err != nil {
			return usageErrorf("%v", err)
		}
		reports = append(reports, rep)
		if *spanFlag != "" {
			span := *spanFlag
			if span == "auto" {
				span = ""
			}
			rep, err := prove.ProveSpanClosure(sys, *invFlag, span)
			if err != nil {
				return usageErrorf("%v", err)
			}
			reports = append(reports, rep)
		}
	} else if *spanFlag != "" {
		return usageErrorf("-span requires -invariant")
	}
	if (*zFlag == "") != (*xFlag == "") {
		return usageErrorf("-z and -x must be given together")
	}
	if *zFlag != "" {
		rep, err := prove.ProveSafeness(sys, u, *zFlag, *xFlag)
		if err != nil {
			return usageErrorf("%v", err)
		}
		reports = append(reports, rep)
	}
	if *convFlag != "" {
		var rank []gcl.Expr
		if *rankFlag != "" {
			for _, part := range strings.Split(*rankFlag, ",") {
				e, err := gcl.ParseExpr(strings.TrimSpace(part))
				if err != nil {
					return usageErrorf("-rank: %v", err)
				}
				rank = append(rank, e)
			}
		}
		rep, err := prove.ProveConvergence(sys, u, *convFlag, rank)
		if err != nil {
			return usageErrorf("%v", err)
		}
		reports = append(reports, rep)
	}
	if len(reports) == 0 {
		return usageErrorf("nothing to prove: give -invariant, -z/-x, or -converge")
	}

	if *jsonFlag {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
	} else {
		for _, rep := range reports {
			fmt.Fprintln(out, rep)
		}
	}
	worst := prove.Proved
	for _, rep := range reports {
		if rep.Verdict == prove.Disproved {
			worst = prove.Disproved
			break
		}
		if rep.Verdict == prove.Unknown {
			worst = prove.Unknown
		}
	}
	switch worst {
	case prove.Disproved:
		return withCode(exitFail, fmt.Errorf("disproved"))
	case prove.Unknown:
		return withCode(exitUnknown, fmt.Errorf("inconclusive: fall back to exploration (dctl check)"))
	}
	return nil
}
