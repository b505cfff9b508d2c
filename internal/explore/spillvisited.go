package explore

// The visited set of a spilled exploration. States are deduplicated by
// mixed-radix index through one of two representations picked from the
// memory budget (bfsStore.ownedClaims):
//
//   - dense: a flat bitset over the whole index space, used whenever
//     total/8 bytes fit the budget's visited share. Claims never touch disk.
//   - sharded: the index space is block-cyclically hash-partitioned
//     (partition = (idx/block) mod P) and each partition keeps a Bloom
//     filter plus a small in-RAM delta in front of a sorted, fixed-width
//     (8 bytes per record) shard file probed by binary search over pread
//     windows. A Bloom miss proves the index is new, so the common path —
//     most claims in a BFS are first encounters — never touches disk;
//     only Bloom false positives and genuine revisits pay a probe.
//
// Both forms are single-owner: a scan owns the whole set, and the build
// engine gives each worker exclusive ownership of its partitions (blocks
// are 64-aligned, so dense claims by different owners never share a word).
// No atomics, no locks — ownership is the synchronization.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
)

// spillPartitioner maps state indices to partitions block-cyclically. Blocks
// are multiples of 64 indices so that dense-bitset words are never shared
// between partitions (and therefore never between owning workers).
type spillPartitioner struct {
	block uint64
	parts int
}

// newSpillPartitioner sizes blocks so each partition receives many blocks
// (balancing reachable sets that cluster in index space) while staying
// 64-aligned.
func newSpillPartitioner(total uint64, parts int) spillPartitioner {
	if parts < 1 {
		parts = 1
	}
	block := total / (uint64(parts) * 16)
	block -= block % 64
	if block < 64 {
		block = 64
	}
	return spillPartitioner{block: block, parts: parts}
}

//dc:zeroalloc
func (p spillPartitioner) part(idx uint64) int {
	return int(idx / p.block % uint64(p.parts))
}

// spillRecentCap bounds each partition's unsorted insertion tail; at the cap
// the tail is sorted and merged into the delta.
const spillRecentCap = 256

// shardPart is one partition of the sharded visited set.
type shardPart struct {
	bloom     []uint64
	bloomMask uint64
	recent    []uint64 // unsorted insertion tail
	delta     []uint64 // sorted, merged into the shard file at deltaCap
	base      *os.File // sorted fixed-width records
	baseRecs  int64
	rdbuf     [8]byte
}

// shardedSpillVisited is the disk-backed mode: P shard parts behind Bloom
// fronts, plus instance-local counters flushed by finish. Parts allocate
// lazily on first claim, so an instance that only ever sees a subset of the
// partitions — each of W workers owns 1/W of them —
// pays only for that subset.
type shardedSpillVisited struct {
	parts     []shardPart
	pt        spillPartitioner
	dir       string
	deltaCap  int
	bloomBits uint64

	hits, misses, probes, merges int64
}

func newShardedVisited(dir string, pt spillPartitioner, visitedBytes int64) *shardedSpillVisited {
	p := int64(pt.parts)
	bloomBits := nextPow2(uint64(visitedBytes/2*8) / uint64(p))
	if bloomBits < 1<<12 {
		bloomBits = 1 << 12
	}
	deltaCap := int(visitedBytes / 2 / 8 / p)
	if deltaCap < 1<<10 {
		deltaCap = 1 << 10
	}
	return &shardedSpillVisited{
		parts:     make([]shardPart, pt.parts),
		pt:        pt,
		dir:       dir,
		deltaCap:  deltaCap,
		bloomBits: bloomBits,
	}
}

func nextPow2(v uint64) uint64 {
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}

// splitmix64 is the Bloom hash: a full-avalanche mix of the state index,
// split into two independent bit positions.
//
//dc:zeroalloc
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// bloomHas reports whether idx may have been inserted (false = definitely
// new).
//
//dc:zeroalloc
func (p *shardPart) bloomHas(idx uint64) bool {
	h := splitmix64(idx)
	b1 := h & p.bloomMask
	b2 := (h >> 32) & p.bloomMask
	return p.bloom[b1>>6]&(1<<(b1&63)) != 0 && p.bloom[b2>>6]&(1<<(b2&63)) != 0
}

//dc:zeroalloc
func (p *shardPart) bloomAdd(idx uint64) {
	h := splitmix64(idx)
	b1 := h & p.bloomMask
	b2 := (h >> 32) & p.bloomMask
	p.bloom[b1>>6] |= 1 << (b1 & 63)
	p.bloom[b2>>6] |= 1 << (b2 & 63)
}

// ramHas searches the partition's in-RAM layers: the unsorted recent tail
// linearly, the sorted delta by binary search.
//
//dc:zeroalloc
func (p *shardPart) ramHas(idx uint64) bool {
	for _, v := range p.recent {
		if v == idx {
			return true
		}
	}
	lo, hi := 0, len(p.delta)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.delta[mid] < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(p.delta) && p.delta[lo] == idx
}

// baseHas probes the shard file by binary search over 8-byte pread windows.
// It is the only disk touch on the claim path and runs only when the Bloom
// front reports a possible hit that the RAM layers cannot resolve.
func (p *shardPart) baseHas(idx uint64) (bool, error) {
	lo, hi := int64(0), p.baseRecs
	for lo < hi {
		mid := (lo + hi) / 2
		if _, err := p.base.ReadAt(p.rdbuf[:], mid*8); err != nil {
			return false, fmt.Errorf("%w: shard probe: %v", ErrSpillCorrupt, err)
		}
		v := binary.LittleEndian.Uint64(p.rdbuf[:])
		switch {
		case v < idx:
			lo = mid + 1
		case v > idx:
			hi = mid
		default:
			return true, nil
		}
	}
	return false, nil
}

// claim inserts idx if absent, reporting true exactly once per index; the
// error is non-nil only on spill I/O failure or a corrupt shard file. The
// Bloom front resolves first encounters without touching the deeper layers;
// everything else walks RAM then (if the partition has spilled) the shard
// file.
func (s *shardedSpillVisited) claim(idx uint64) (bool, error) {
	p := &s.parts[s.pt.part(idx)]
	if p.bloom == nil {
		p.bloom = make([]uint64, s.bloomBits/64)
		p.bloomMask = s.bloomBits - 1
		p.recent = make([]uint64, 0, spillRecentCap)
	}
	if !p.bloomHas(idx) {
		s.hits++
		p.bloomAdd(idx)
		return true, s.insert(p, idx)
	}
	s.misses++
	if p.ramHas(idx) {
		return false, nil
	}
	if p.base != nil {
		s.probes++
		found, err := p.baseHas(idx)
		if err != nil || found {
			return false, err
		}
	}
	p.bloomAdd(idx)
	return true, s.insert(p, idx)
}

// insert records a claimed index, compacting recent→delta→shard file as the
// layers fill.
func (s *shardedSpillVisited) insert(p *shardPart, idx uint64) error {
	p.recent = append(p.recent, idx)
	if len(p.recent) < spillRecentCap {
		return nil
	}
	sort.Slice(p.recent, func(i, j int) bool { return p.recent[i] < p.recent[j] })
	p.delta = mergeSorted(p.delta, p.recent)
	p.recent = p.recent[:0]
	if len(p.delta) >= s.deltaCap {
		return s.mergeToBase(p)
	}
	return nil
}

// mergeSorted merges two ascending uint64 slices (disjoint by construction:
// claim never inserts a duplicate) into a fresh ascending slice.
func mergeSorted(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// mergeToBase streams the shard file and the sorted delta into a new shard
// file, replacing the old one. Records are raw fixed-width indices; the
// merge validates the old file's length against its record count, so a
// truncated shard is detected before it can swallow a state.
func (s *shardedSpillVisited) mergeToBase(p *shardPart) error {
	s.merges++
	nf, err := os.CreateTemp(s.dir, "shard-*.idx")
	if err != nil {
		return fmt.Errorf("explore: create shard file: %w", err)
	}
	w := bufio.NewWriterSize(nf, 1<<16)
	var wbuf [8]byte
	written := int64(0)
	emit := func(v uint64) error {
		binary.LittleEndian.PutUint64(wbuf[:], v)
		written++
		_, err := w.Write(wbuf[:])
		return err
	}
	di := 0
	if p.base != nil {
		st, err := p.base.Stat()
		if err == nil && st.Size() != p.baseRecs*8 {
			err = fmt.Errorf("%w: shard file holds %d bytes, expected %d", ErrSpillCorrupt, st.Size(), p.baseRecs*8)
		}
		if err != nil {
			nf.Close()
			os.Remove(nf.Name())
			return err
		}
		if _, err := p.base.Seek(0, 0); err != nil {
			nf.Close()
			os.Remove(nf.Name())
			return fmt.Errorf("explore: rewind shard file: %w", err)
		}
		r := bufio.NewReaderSize(p.base, 1<<16)
		var rbuf [8]byte
		for rec := int64(0); rec < p.baseRecs; rec++ {
			if _, err := io.ReadFull(r, rbuf[:]); err != nil {
				nf.Close()
				os.Remove(nf.Name())
				return fmt.Errorf("%w: shard merge read: %v", ErrSpillCorrupt, err)
			}
			v := binary.LittleEndian.Uint64(rbuf[:])
			for di < len(p.delta) && p.delta[di] < v {
				if err := emit(p.delta[di]); err != nil {
					return err
				}
				di++
			}
			if err := emit(v); err != nil {
				return err
			}
		}
	}
	for ; di < len(p.delta); di++ {
		if err := emit(p.delta[di]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("explore: write shard file: %w", err)
	}
	spillBytes.Add(written * 8)
	if p.base != nil {
		old := p.base.Name()
		p.base.Close()
		os.Remove(old)
	}
	p.base = nf
	p.baseRecs = written
	p.delta = p.delta[:0]
	return nil
}

// finish folds the instance's counters into the process-wide spill counters
// and deletes its shard files.
func (s *shardedSpillVisited) finish() {
	spillFrontHits.Add(s.hits)
	spillFrontMisses.Add(s.misses)
	spillShardProbes.Add(s.probes)
	spillShardMerges.Add(s.merges)
	s.hits, s.misses, s.probes, s.merges = 0, 0, 0, 0
	for i := range s.parts {
		if f := s.parts[i].base; f != nil {
			path := f.Name()
			f.Close()
			os.Remove(path)
			s.parts[i].base = nil
		}
	}
}
