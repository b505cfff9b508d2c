package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"detcorr/internal/explore"
	"detcorr/internal/serve/api"
	"detcorr/internal/verify"
)

// Config tunes a Server. The zero value of every field selects a sensible
// default; see the constants below.
type Config struct {
	// MaxInFlight bounds concurrently evaluating verdicts (admission
	// control). Requests beyond the bound that cannot join an existing
	// flight are refused with 429 and a Retry-After header rather than
	// queued: the state spaces behind a verdict are large enough that an
	// unbounded queue is just a slow out-of-memory.
	MaxInFlight int
	// TenantBudget bounds the resident exploration-cache states attributable
	// to any one tenant (X-DC-Tenant header; empty is a tenant like any
	// other). When a tenant's programs exceed it, their least-recently-used
	// programs are evicted from the graph cache. 0 means no per-tenant bound.
	TenantBudget int
	// MaxPrograms bounds distinct compiled programs kept resident. 0 means
	// defaultMaxPrograms.
	MaxPrograms int
	// MaxBodyBytes bounds the request body. 0 means defaultMaxBodyBytes.
	MaxBodyBytes int64
	// VerdictCacheSize bounds memoized whole verdicts (keyed by the full
	// request). 0 means defaultVerdictCacheSize; negative disables.
	VerdictCacheSize int
	// SpillBudget, when positive, installs a process-wide exploration
	// memory budget (bytes): evaluations whose state space would outgrow
	// it degrade to the out-of-core engine — spilling the visited set and
	// frontier to files under SpillDir — instead of being refused or
	// growing without bound. Verdicts are byte-identical either way.
	// Explorations that fit the budget never touch disk. 0 leaves the
	// in-RAM engines as the default.
	SpillBudget int64
	// SpillDir is where spill files are placed; "" means the OS temp
	// directory. Only consulted when SpillBudget is positive.
	SpillDir string
	// Logf receives one line per completed request; nil discards.
	Logf func(format string, args ...any)
}

const (
	defaultMaxInFlight      = 8
	defaultMaxPrograms      = 64
	defaultMaxBodyBytes     = 1 << 20
	defaultVerdictCacheSize = 1024
)

// Server hosts the verdict service. It implements http.Handler; wrap it in
// an http.Server to listen. Create with NewServer, stop with Shutdown.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	programs *registry
	sem      chan struct{}
	draining chan struct{} // closed by Shutdown
	drainOne sync.Once
	evals    sync.WaitGroup
	met      metrics

	mu       sync.Mutex
	flights  map[[sha256.Size]byte]*flight
	verdicts *verdictCache
	tenants  map[string]*tenantState

	// testGate, when non-nil, runs inside every flight just before Eval.
	// Tests use it to hold evaluations open while they probe admission,
	// dedup, and drain behaviour. Never set in production.
	testGate func()
}

// flight is one in-progress evaluation, shared by every request that asked
// the same question while it ran. The flight's context is detached from any
// single request and cancelled only when the last waiter walks away.
type flight struct {
	done   chan struct{}
	cancel context.CancelFunc
	refs   int // guarded by Server.mu
	prog   *verify.Program
	resp   *api.Response
	err    error
}

// NewServer returns a ready-to-serve Server. The caller owns listening and
// must call Shutdown to drain.
func NewServer(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	if cfg.MaxPrograms <= 0 {
		cfg.MaxPrograms = defaultMaxPrograms
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	if cfg.VerdictCacheSize == 0 {
		cfg.VerdictCacheSize = defaultVerdictCacheSize
	}
	if cfg.SpillBudget > 0 {
		// The default is process-wide, like SetDefaultParallelism: every
		// exploration the evaluations reach inherits the budget.
		explore.SetDefaultSpill(cfg.SpillBudget, cfg.SpillDir)
	}
	s := &Server{
		cfg:      cfg,
		programs: newRegistry(cfg.MaxPrograms),
		sem:      make(chan struct{}, cfg.MaxInFlight),
		draining: make(chan struct{}),
		flights:  map[[sha256.Size]byte]*flight{},
		verdicts: newVerdictCache(cfg.VerdictCacheSize),
		tenants:  map[string]*tenantState{},
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/verdict", s.handleVerdict)
	s.mux.HandleFunc("POST /v1/revise", s.handleRevise)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown drains the server: new verdict requests are refused with 503
// while every in-flight evaluation runs to completion (or ctx expires, in
// which case the stragglers are abandoned to their own cancellation when
// their clients disconnect). Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	// The drain flag flips under the same lock that guards flight creation,
	// so every evaluation is either registered with the WaitGroup before the
	// flip (and drained here) or refused after it — Add never races Wait.
	s.mu.Lock()
	s.drainOne.Do(func() { close(s.draining) })
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.evals.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Sentinel outcomes of the admission path.
var (
	errSaturated = errors.New("serve: all evaluation slots busy")
	errDraining  = errors.New("serve: draining, not accepting new verdicts")
)

// requestKey is the deduplication identity of a request: a hash of its
// canonical JSON. Tenancy is carried out-of-band (header), so two tenants
// asking the same question share a key — and therefore a flight, a cached
// verdict, and one graph build.
func requestKey(req api.Request) [sha256.Size]byte {
	b, err := json.Marshal(req)
	if err != nil {
		// A Request is plain strings, a bool, and an int; Marshal cannot
		// fail. Keep the panic close to the impossibility.
		panic("serve: marshal request: " + err.Error())
	}
	return sha256.Sum256(b)
}

func (s *Server) handleVerdict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req api.Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("serve: body exceeds %d bytes", tooBig.Limit))
			return
		}
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decode request: %w", err))
		return
	}
	tenant := r.Header.Get("X-DC-Tenant")
	if isSSE(r) {
		s.serveSSE(w, r, req, tenant, start)
		return
	}
	resp, cacheState, err := s.verdict(r.Context(), req, tenant, nil)
	if err != nil {
		s.writeVerdictError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-DC-Cache", cacheState)
	w.Header().Set("X-DC-Exit", strconv.Itoa(resp.ExitCode()))
	if err := api.Encode(w, resp); err != nil {
		s.logf("serve: write response: %v", err)
	}
	s.met.observe(http.StatusOK, cacheState, time.Since(start))
	s.logf("verdict check=%s cache=%s verdict=%s dur=%s", req.Check, cacheState, resp.Verdict, time.Since(start))
}

// handleRevise runs the revision pipeline: compile both sources through
// the registry (so the new revision is resident and linted exactly as a
// verdict request would leave it), then migrate graphs and
// verdicts. The body limit is doubled because the request carries two full
// sources.
func (s *Server) handleRevise(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.isDraining() {
		s.writeVerdictError(w, r, errDraining)
		return
	}
	var req api.ReviseRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 2*s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("serve: body exceeds %d bytes", tooBig.Limit))
			return
		}
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decode revision: %w", err))
		return
	}
	if err := req.Validate(); err != nil {
		s.writeVerdictError(w, r, &UsageError{Err: err})
		return
	}
	oldProg, err := s.programs.load(req.Old)
	if err != nil {
		s.writeVerdictError(w, r, fmt.Errorf("old revision: %w", err))
		return
	}
	newProg, err := s.programs.load(req.New)
	if err != nil {
		s.writeVerdictError(w, r, fmt.Errorf("new revision: %w", err))
		return
	}
	newFile := newProg.File()
	rep := s.Advance(oldProg.File(), newFile)
	w.Header().Set("Content-Type", "application/json")
	if err := api.Encode(w, rep); err != nil {
		s.logf("serve: write revise response: %v", err)
	}
	s.met.observe(http.StatusOK, "", time.Since(start))
	s.logf("revise program=%s preserved=%d invalidated=%d rebound=%d repaired=%d rebuilt=%d dur=%s",
		newFile.Name, rep.VerdictsPreserved, rep.VerdictsInvalidated,
		rep.GraphsRebound, rep.GraphsRepaired, rep.GraphsRebuilt, time.Since(start))
}

// verdict runs the admission pipeline: drain check, verdict cache, flight
// join, slot acquisition, evaluation. progress (may be nil) is told which
// path the request took before the wait begins.
func (s *Server) verdict(ctx context.Context, req api.Request, tenant string, progress func(stage string)) (*api.Response, string, error) {
	if s.isDraining() {
		return nil, "", errDraining
	}
	if err := req.Validate(); err != nil {
		return nil, "", &UsageError{Err: err}
	}
	key := requestKey(req)
	if resp, ok := s.verdicts.get(key); ok {
		return resp, "hit", nil
	}

	s.mu.Lock()
	if fl, ok := s.flights[key]; ok {
		fl.refs++
		s.mu.Unlock()
		if progress != nil {
			progress("join")
		}
		resp, err := s.wait(ctx, key, fl, tenant)
		return resp, "join", err
	}
	// The flight for this question may have published its verdict and
	// left since the first look: run caches the verdict before it drops
	// the flight, so under the lock one of the two is always visible.
	if resp, ok := s.verdicts.get(key); ok {
		s.mu.Unlock()
		return resp, "hit", nil
	}
	// No flight to join: admission. The slot is acquired before the flight
	// exists, so a saturated server refuses instead of accumulating work.
	select {
	case s.sem <- struct{}{}:
	default:
		s.mu.Unlock()
		return nil, "", errSaturated
	}
	// Re-check the drain flag under the lock: Shutdown flips it under the
	// same lock, so a flight created here is guaranteed to be registered
	// before Shutdown starts waiting.
	if s.isDraining() {
		<-s.sem
		s.mu.Unlock()
		return nil, "", errDraining
	}
	fctx, cancel := context.WithCancel(context.Background())
	fl := &flight{done: make(chan struct{}), cancel: cancel, refs: 1}
	s.flights[key] = fl
	s.evals.Add(1)
	s.mu.Unlock()

	go s.run(fctx, fl, key, req)
	if progress != nil {
		progress("eval")
	}
	resp, err := s.wait(ctx, key, fl, tenant)
	return resp, "miss", err
}

// run evaluates one flight: compile (deduplicated by the program registry),
// decide on the registry's ladder value, publish. Successful verdicts enter
// the verdict cache; failures of any kind are never cached, mirroring the
// graph cache's no-poisoning rule.
func (s *Server) run(ctx context.Context, fl *flight, key [sha256.Size]byte, req api.Request) {
	defer s.evals.Done()
	defer func() { <-s.sem }()
	start := time.Now()
	if s.testGate != nil {
		s.testGate()
	}
	prog, err := s.programs.load(req.Program)
	if err == nil {
		var rung verify.Rung
		fl.prog = prog
		fl.resp, rung, fl.err = verify.Decide(ctx, prog, req)
		if fl.err == nil {
			s.met.observeRung(rung)
		}
	} else {
		fl.err = err
	}
	s.met.observeEval(time.Since(start))

	// Publish before leaving: a request that misses the flight must find
	// the verdict (see verdict), or it would evaluate the question again.
	if fl.err == nil {
		s.verdicts.put(key, req, fl.resp)
	}
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(fl.done)
}

// wait blocks until the flight publishes or the caller's context ends. A
// departing waiter releases its reference; the last one out cancels the
// flight, so an evaluation nobody is waiting for stops exploring.
func (s *Server) wait(ctx context.Context, key [sha256.Size]byte, fl *flight, tenant string) (*api.Response, error) {
	select {
	case <-fl.done:
	case <-ctx.Done():
		s.mu.Lock()
		fl.refs--
		last := fl.refs == 0
		s.mu.Unlock()
		if last {
			fl.cancel()
		}
		return nil, ctx.Err()
	}
	if fl.err != nil {
		return nil, fl.err
	}
	s.chargeTenant(tenant, fl.prog)
	return fl.resp, nil
}

// writeVerdictError maps the admission/evaluation error taxonomy onto HTTP:
// 400 malformed question (dctl exit 2), 422 unprocessable program (exit 3),
// 429 saturated, 503 draining, 500 operational failure (exit 1).
func (s *Server) writeVerdictError(w http.ResponseWriter, r *http.Request, err error) {
	var ue *UsageError
	var le *LoadError
	switch {
	case errors.Is(err, errDraining):
		w.Header().Set("Connection", "close")
		s.writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, errSaturated):
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, err)
	case errors.As(err, &ue):
		w.Header().Set("X-DC-Exit", "2")
		s.writeError(w, http.StatusBadRequest, err)
	case errors.As(err, &le):
		w.Header().Set("X-DC-Exit", "3")
		s.writeError(w, http.StatusUnprocessableEntity, err)
	case isCancellation(err) && r.Context().Err() != nil:
		// The client is gone; nothing useful can be written.
		s.met.observe(499, "", 0)
	default:
		w.Header().Set("X-DC-Exit", "1")
		s.writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if eerr := api.Encode(w, api.Error{Error: err.Error()}); eerr != nil {
		s.logf("serve: write error response: %v", eerr)
	}
	s.met.observe(code, "", 0)
	s.logf("error code=%d err=%v", code, err)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.isDraining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
