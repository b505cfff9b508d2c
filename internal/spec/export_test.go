package spec

// ScanBadState exposes the streaming bad-state hunt to the external tests,
// which compare it with the graph path on the difftest example systems (a
// package whose systems import spec).
var ScanBadState = scanBadState
