// Command dcserved is the long-running verdict service: an HTTP/JSON daemon
// wrapping the full checker pipeline. Clients POST a GCL program plus a
// property to /v1/verdict (protocol: detcorr/internal/serve/api) and get
// back the verdict with its witness — closure, detector and corrector
// conditions, convergence, deadlock hunts, and the exploration-free provers.
//
// Usage:
//
//	dcserved [-addr :8125] [-inflight N] [-tenant-budget STATES]
//	    [-cache-budget STATES] [-max-programs N] [-max-body BYTES]
//	    [-verdict-cache N] [-mem-budget B] [-spill-dir D] [-noslice] [-quiet]
//
// -mem-budget B (e.g. 64M, 2G) bounds the memory any one exploration may
// hold resident: evaluations whose state space would outgrow the budget
// degrade to spilled exploration — spilling the visited set and BFS
// frontier to files under -spill-dir — instead of being refused or growing
// without bound. Verdicts are byte-identical either way, and explorations
// that fit the budget never touch disk.
//
// Endpoints:
//
//	POST /v1/verdict    One verdict per request. The response body is the
//	                    api.Response JSON; X-DC-Exit carries the dctl exit
//	                    code for the verdict and X-DC-Cache reports how it
//	                    was obtained (miss, hit, or join). With
//	                    Accept: text/event-stream the verdict streams as
//	                    Server-Sent Events (progress, verdict, exit).
//	POST /v1/revise     Advance a registered program to a new revision:
//	                    {"old": src, "new": src}. The daemon diffs the two,
//	                    repairs the old revision's cached transition graphs
//	                    in place under the new one, and re-keys every cached
//	                    verdict the edit provably cannot have changed —
//	                    instead of flushing. The response reports the
//	                    impact (changed actions/preds/faults, affected
//	                    predicates) and the graphs rebound/repaired/rebuilt
//	                    and verdicts preserved/invalidated.
//	GET  /healthz       "ok" while serving, 503 "draining" once a shutdown
//	                    signal has been received.
//	GET  /metrics       Prometheus text: request counters, verdict cache
//	                    hit/miss/join, in-flight gauge, evaluation latency
//	                    histogram, revision invalidation outcomes
//	                    (dcserved_invalidate_*), and the process-wide
//	                    exploration-cache counters.
//
// Identical questions asked concurrently coalesce into one evaluation (and
// one state-space build); repeated questions answer from the verdict cache.
// Saturation — more distinct in-flight questions than -inflight slots —
// refuses with 429 and Retry-After rather than queueing. A tenant names
// itself with the X-DC-Tenant header; -tenant-budget bounds the resident
// graph states any one tenant's programs may pin.
//
// On SIGINT or SIGTERM the daemon drains: new verdicts are refused with
// 503, in-flight evaluations run to completion (up to -drain-timeout), and
// the process exits 0 on a clean drain.
//
// Exit codes: 0 after a clean drain; 1 if the listener failed or the drain
// timed out; 2 on a bad command line.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"detcorr/internal/explore"
	"detcorr/internal/flow"
	"detcorr/internal/serve"
)

// Process exit codes.
const (
	exitOK    = 0 // clean drain after a shutdown signal
	exitFail  = 1 // listener failure or drain timeout
	exitUsage = 2 // bad command line
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, errOut io.Writer) int {
	fs := flag.NewFlagSet("dcserved", flag.ContinueOnError)
	fs.SetOutput(errOut)
	addr := fs.String("addr", ":8125", "listen address")
	inflight := fs.Int("inflight", 0, "max concurrently evaluating verdicts (0 = default)")
	tenantBudget := fs.Int("tenant-budget", 0, "max resident graph states per tenant (0 = unbounded)")
	cacheBudget := fs.Int("cache-budget", 0, "process-wide exploration cache budget in states (0 = keep default)")
	maxPrograms := fs.Int("max-programs", 0, "max distinct compiled programs kept resident (0 = default)")
	maxBody := fs.Int64("max-body", 0, "max request body bytes (0 = default)")
	verdictCache := fs.Int("verdict-cache", 0, "max memoized verdicts (0 = default, negative disables)")
	memBudget := fs.String("mem-budget", "", "per-exploration memory budget, e.g. 64M or 2G (empty = in RAM)")
	spillDir := fs.String("spill-dir", "", "directory for exploration spill files (default: the OS temp directory)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight verdicts on shutdown")
	noslice := fs.Bool("noslice", false, "disable the cone-of-influence slicing pre-pass")
	quiet := fs.Bool("quiet", false, "suppress per-request log lines")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	flow.SetEnabled(!*noslice)
	if fs.NArg() != 0 {
		fmt.Fprintf(errOut, "dcserved: unexpected arguments %v\n", fs.Args())
		return exitUsage
	}
	if *cacheBudget > 0 {
		explore.SetCacheBudget(*cacheBudget)
	}
	spillBudget := int64(0)
	if *memBudget != "" {
		b, err := explore.ParseByteSize(*memBudget)
		if err != nil {
			fmt.Fprintf(errOut, "dcserved: -mem-budget: %v\n", err)
			return exitUsage
		}
		spillBudget = b
	}

	logger := log.New(errOut, "dcserved: ", log.LstdFlags)
	cfg := serve.Config{
		MaxInFlight:      *inflight,
		TenantBudget:     *tenantBudget,
		MaxPrograms:      *maxPrograms,
		MaxBodyBytes:     *maxBody,
		VerdictCacheSize: *verdictCache,
		SpillBudget:      spillBudget,
		SpillDir:         *spillDir,
	}
	if !*quiet {
		cfg.Logf = logger.Printf
	}
	srv := serve.NewServer(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	// The handler goes in before the listener: a client that has seen the
	// daemon answer may signal it at once, and a SIGTERM with no handler
	// kills the process without a drain.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Printf("listening on %s", *addr)

	select {
	case err := <-errCh:
		logger.Printf("listener: %v", err)
		return exitFail
	case sig := <-sigCh:
		logger.Printf("received %v, draining", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Refuse new verdicts and finish the in-flight ones, then stop the
	// listener; the order matters — closing the listener first would sever
	// clients whose evaluations are about to complete.
	drainErr := srv.Shutdown(ctx)
	httpErr := httpSrv.Shutdown(ctx)
	if drainErr != nil || (httpErr != nil && !errors.Is(httpErr, http.ErrServerClosed)) {
		logger.Printf("drain: %v, listener: %v", drainErr, httpErr)
		return exitFail
	}
	logger.Printf("drained cleanly")
	return exitOK
}
