package prove

import (
	"context"
	"errors"
	"fmt"
	"strings"
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

// TestSpanInferenceCancelsPromptly pins the same promptness for a span the
// prover infers. The program's 48 counters start at 0 and each action
// bumps one of them behind three two-variable modular literals, so the
// abstract reachability fixpoint runs 64 rounds of full-width enumerations
// (about 2 s uncancelled); a 50 ms deadline must end it within 250 ms.
func TestSpanInferenceCancelsPromptly(t *testing.T) {
	const n = 48
	var b strings.Builder
	b.WriteString("program wide\n")
	zero := make([]string, n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "var x%d : 0..63\n", i)
		zero[i] = fmt.Sprintf("x%d == 0", i)
	}
	fmt.Fprintf(&b, "pred Inv :: %s\n", strings.Join(zero, " & "))
	x := func(i int) string { return fmt.Sprintf("x%d", i%n) }
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "action a%d :: (%s + %s) %% 7 != 3 & (%s * %s) %% 5 != 1 & (%s + 2 * %s) %% 11 != 4 -> %s := (%s + 1) %% 64\n",
			i, x(i), x(i+1), x(i), x(i+2), x(i+1), x(i+3), x(i), x(i))
	}
	sys := mustSystem(t, b.String())
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ProveSpanClosureCtx(ctx, sys, "Inv", "")
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if took > 250*time.Millisecond {
		t.Errorf("returned %v after the call, want within 250ms of a 50ms deadline", took)
	}
}
