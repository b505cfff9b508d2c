package prove

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestConvergenceCancelsPromptly pins how soon a cancelled proof returns.
// Convergence of Dijkstra's ring from true has no ranking function the
// greedy synthesis can find, and each failed candidate's refutations run
// for seconds on ring 5 and minutes on ring 6; the context is polled at
// every case split and every pollEvery enumerated assignments, so a 50 ms
// deadline must end the attempt within a few hundred milliseconds.
func TestConvergenceCancelsPromptly(t *testing.T) {
	for _, n := range []int{5, 6} {
		t.Run(fmt.Sprintf("ring%d", n), func(t *testing.T) {
			sys := mustSystem(t, ringSrc(n, n))
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := ProveConvergenceCtx(ctx, sys, "true", "Legit", nil)
			took := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if took > 250*time.Millisecond {
				t.Errorf("returned %v after the call, want within 250ms of a 50ms deadline", took)
			}
		})
	}
}

// TestComponentCancelled checks that a cancelled component attempt reports
// the cancellation rather than "not proved", so no caller can memoize it.
func TestComponentCancelled(t *testing.T) {
	sys := mustSystem(t, ringSrc(4, 4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ok, err := ProveComponentCtx(ctx, sys, "corrector", "Legit", "Legit", "true")
	if ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("ProveComponentCtx on a cancelled context = %v, %v; want false, context.Canceled", ok, err)
	}
}
