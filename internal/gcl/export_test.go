package gcl

import "detcorr/internal/guarded"

// PredOps returns each lowered predicate's raw bytecode, by name.
func PredOps(f *File) map[string][]guarded.Op { return f.predOps }
