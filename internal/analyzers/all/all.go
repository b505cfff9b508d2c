// Package all is the dcvet analyzer registry: the one place that knows
// every pass in the suite. It exists as its own package so the framework
// (internal/analyzers) never imports the analyzers built on it — the
// import edges stay framework ← analyzer ← registry ← driver, with no
// cycles.
package all

import (
	"detcorr/internal/analyzers"
	"detcorr/internal/analyzers/cachekey"
	"detcorr/internal/analyzers/dccodes"
	"detcorr/internal/analyzers/exitcodes"
	"detcorr/internal/analyzers/graphmut"
	"detcorr/internal/analyzers/ignored"
	"detcorr/internal/analyzers/zeroalloc"
)

// Analyzers returns the full suite in name order.
func Analyzers() []*analyzers.Analyzer {
	return []*analyzers.Analyzer{
		cachekey.Analyzer(),
		dccodes.Analyzer(),
		exitcodes.Analyzer(),
		graphmut.Analyzer(),
		ignored.Analyzer(),
		zeroalloc.Analyzer(),
	}
}
