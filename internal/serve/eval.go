// Package serve hosts the decision ladder of internal/verify — closure,
// detector and corrector conditions, convergence, deadlock hunts, and the
// exploration-free provers — behind the verdict protocol of
// internal/serve/api, as a long-running HTTP daemon (Server). The dcserved
// handler and the dctl verdict subcommand both decide through
// verify.Decide, so a verdict served over HTTP is computed by exactly the
// code that computes it at the command line, and the byte-parity tests can
// compare the two transports verbatim.
package serve

import (
	"context"
	"errors"

	"detcorr/internal/gcl"
	"detcorr/internal/serve/api"
	"detcorr/internal/verify"
)

// UsageError marks a request that is well-formed JSON but asks a malformed
// question. It maps to HTTP 400 and dctl exit code 2.
type UsageError = verify.UsageError

// Eval computes the verdict for req against the compiled file f, on a
// fresh ladder value: nothing derived from f outlives the call except the
// graphs the exploration cache keeps. The returned error is nil whenever a
// verdict was reached — a failing property is a verdict
// (api.VerdictFails), not an error. Non-nil errors are either *UsageError
// (the request asks a malformed question), a context cancellation (the
// caller walked away mid-exploration), or an exploration failure such as
// explore.ErrStateBound.
func Eval(ctx context.Context, f *gcl.File, req api.Request) (*api.Response, error) {
	resp, _, err := verify.Decide(ctx, verify.New(f, nil), req)
	return resp, err
}

// isCancellation reports whether err stems from a context ending.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
