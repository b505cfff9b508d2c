package explore

// Test-only exports for the external engine tests (package explore_test),
// which compare against the reference engine through difftest — a package
// that imports this one, so those tests cannot live in package explore.

const EdgeChunk = edgeChunk

var (
	BuildReference = buildReference
	Counter        = counter
	Inc            = inc
	Cycle          = cycle
)

// SetDenseVisitedLimit replaces the in-RAM dense visited-set bound and
// returns the previous one.
func SetDenseVisitedLimit(n uint64) uint64 {
	old := denseVisitedLimit
	denseVisitedLimit = n
	return old
}

// writeBlocks returns the blocks of the frontier's write level, for tests
// that pin the run encoding.
func (f *ramFrontier) writeBlocks() [][]uint64 { return f.write }
