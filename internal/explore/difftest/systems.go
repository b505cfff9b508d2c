package difftest

import (
	"detcorr/internal/byzagree"
	"detcorr/internal/guarded"
	"detcorr/internal/leader"
	"detcorr/internal/memaccess"
	"detcorr/internal/mutex"
	"detcorr/internal/reset"
	"detcorr/internal/state"
	"detcorr/internal/termdetect"
	"detcorr/internal/tmr"
	"detcorr/internal/tokenring"
)

// System is one exploration input of the engine matrix: an example program
// and the predicate its exploration starts from.
type System struct {
	Name string
	Prog *guarded.Program
	Init state.Predicate
}

// Systems returns the repo's hand-lowered example systems, small instances
// of each, as the engine matrix explores them: the full state space, and
// for systems with a distinguished start or invariant, from that predicate.
func Systems() []System {
	mem := memaccess.MustNew(2)
	byz := byzagree.MustNew()
	tm := tmr.MustNew(2)
	ring := tokenring.MustNew(4, 4)
	mtx := mutex.MustNew(3, 3)
	td := termdetect.MustNew(3)
	return []System{
		{"memaccess/p", mem.Intolerant, state.True},
		{"memaccess/pf", mem.FailSafe, state.True},
		{"memaccess/pn", mem.Nonmasking, state.True},
		{"memaccess/pm", mem.Masking, state.True},
		{"tmr/intolerant", tm.Intolerant, state.True},
		{"tmr/masking", tm.Masking, state.True},
		{"tokenring", ring.Ring, state.True},
		{"tokenring/legitimate", ring.Ring, ring.Legitimate},
		{"byzagree/failsafe", byz.FailSafe, state.True},
		{"byzagree/masking", byz.Masking, state.True},
		{"mutex", mtx.Program, state.True},
		{"mutex/invariant", mtx.Program, mtx.Invariant},
		{"leader", leader.MustNew(3).Program, state.True},
		{"reset", reset.MustNewLine(3).Program, state.True},
		{"termdetect", td.Program, state.True},
		{"termdetect/init", td.Program, td.Init},
	}
}
