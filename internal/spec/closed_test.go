package spec

import (
	"errors"
	"strings"
	"testing"
)

// TestClosureViolationWitness pins the witness a failing CheckClosed
// returns: the offending action by name and the exact from/to states, which
// downstream error messages and the dctl output lean on.
func TestClosureViolationWitness(t *testing.T) {
	p := counter(t, 5, dec())
	err := CheckClosed(p, atLeast(2))
	if err == nil {
		t.Fatal("x≥2 is not closed under dec")
	}
	var cv *ClosureViolation
	if !errors.As(err, &cv) {
		t.Fatalf("error is not a ClosureViolation: %v", err)
	}
	if cv.Predicate != "x≥k" {
		t.Errorf("Predicate = %q, want the predicate's name", cv.Predicate)
	}
	if cv.Action != "dec" {
		t.Errorf("Action = %q, want dec", cv.Action)
	}
	// The only violating step from x≥2 is the boundary one: 2 -> 1.
	if got := cv.From.Get(0); got != 2 {
		t.Errorf("From state has x=%d, want the boundary state x=2", got)
	}
	if got := cv.To.Get(0); got != 1 {
		t.Errorf("To state has x=%d, want x=1", got)
	}
}

// TestClosureViolationFormatting pins the rendered message: predicate,
// action, and both witness states must all appear.
func TestClosureViolationFormatting(t *testing.T) {
	sch := counter(t, 3, dec()).Schema()
	v := &ClosureViolation{
		Predicate: "S",
		Action:    "pageout",
		From:      sch.StateAt(2),
		To:        sch.StateAt(1),
	}
	msg := v.Error()
	for _, want := range []string{`closure of "S"`, `violated by action "pageout"`, v.From.String(), v.To.String()} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q missing %q", msg, want)
		}
	}
}
