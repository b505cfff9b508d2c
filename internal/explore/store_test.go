package explore

import (
	"math/rand"
	"testing"
)

// fifoCheck drives a ramFrontier and a plain slice queue with the same
// operations and fails on the first pop or queued() that differs.
type fifoCheck struct {
	t    *testing.T
	f    *ramFrontier
	want []uint64
}

func newFIFOCheck(t *testing.T) *fifoCheck { return &fifoCheck{t: t, f: &ramFrontier{}} }

func (c *fifoCheck) push(idxs ...uint64) {
	c.t.Helper()
	for _, idx := range idxs {
		if err := c.f.push(idx); err != nil {
			c.t.Fatal(err)
		}
		c.want = append(c.want, idx)
		c.queued()
	}
}

func (c *fifoCheck) pushRun(first, n uint64) {
	c.t.Helper()
	for idx := first; idx < first+n; idx++ {
		c.push(idx)
	}
}

// pop pops n indices (all of them when n < 0) and one more past the end
// of the oracle, which must report the frontier drained.
func (c *fifoCheck) pop(n int) {
	c.t.Helper()
	for ; n != 0; n-- {
		got, ok, err := c.f.pop()
		if err != nil {
			c.t.Fatal(err)
		}
		if len(c.want) == 0 {
			if ok {
				c.t.Fatalf("pop = %d from a drained frontier", got)
			}
			return
		}
		if !ok || got != c.want[0] {
			c.t.Fatalf("pop = %d, %v; want %d (%d queued)", got, ok, c.want[0], len(c.want))
		}
		c.want = c.want[1:]
		c.queued()
	}
}

func (c *fifoCheck) queued() {
	c.t.Helper()
	if got := c.f.queued(); got != int64(len(c.want)) {
		c.t.Fatalf("queued() = %d, want %d", got, len(c.want))
	}
}

// fill pushes n pairwise non-consecutive indices from base on, so that
// they take n slots of the frontier.
func (c *fifoCheck) fill(base uint64, n int) {
	c.t.Helper()
	for i := range n {
		c.push(base + 2*uint64(i))
	}
}

// TestRAMFrontierMatchesFIFO holds the block frontier to a plain FIFO
// queue across the shapes its run encoding must survive.
func TestRAMFrontierMatchesFIFO(t *testing.T) {
	t.Run("run-from-last-slot", func(t *testing.T) {
		c := newFIFOCheck(t)
		c.fill(1<<40, frontierBlock-1)
		c.pushRun(7, 5) // 7 takes the block's last slot
		c.pushRun(12, frontierBlock)
		c.pop(-1)
	})
	t.Run("length-in-last-slot", func(t *testing.T) {
		c := newFIFOCheck(t)
		c.fill(1<<40, frontierBlock-2)
		c.pushRun(7, 3) // the run's pair takes the block's last two slots
		c.push(10, 11, 1<<41)
		c.pop(-1)
	})
	t.Run("run-longer-than-block", func(t *testing.T) {
		c := newFIFOCheck(t)
		c.push(3)
		c.pushRun(100, 3*frontierBlock+5)
		c.pop(frontierBlock)
		c.pushRun(100+3*frontierBlock+5, 2)
		c.pop(-1)
	})
	t.Run("broken-runs", func(t *testing.T) {
		c := newFIFOCheck(t)
		c.pushRun(10, 3)
		c.push(20, 21, 13, 14, 14, 15, 9, 10, 0, 1)
		c.pop(4)
		c.pushRun(2, 4)
		c.pop(-1)
	})
	t.Run("level-swap-mid-run", func(t *testing.T) {
		c := newFIFOCheck(t)
		c.pushRun(5, 4)
		c.pop(2) // the write level became the read level, inside the run
		c.pushRun(9, 3)
		c.pop(1)
		c.pushRun(12, 2)
		c.pop(-1)
		c.pushRun(14, 2) // a drained frontier takes pushes again
		c.pop(-1)
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(30))
		c := newFIFOCheck(t)
		next := uint64(0)
		for op := 0; op < 200000; op++ {
			switch r := rng.Intn(10); {
			case r < 6:
				if rng.Intn(4) == 0 {
					next = uint64(rng.Int63n(1 << 62))
				}
				c.push(next)
				next++
			case r < 9:
				c.pop(1)
			default:
				c.pop(rng.Intn(3 * frontierBlock))
			}
		}
		c.pop(-1)
	})
}

// TestRAMFrontierStoresSeedRun pins the encoding: a push of every index
// of a 2^21-state schema in order, as seeding from true makes it, is one
// run pair in one block.
func TestRAMFrontierStoresSeedRun(t *testing.T) {
	f := &ramFrontier{}
	const n = 1 << 21
	for idx := uint64(0); idx < n; idx++ {
		if err := f.push(idx); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.queued(); got != n {
		t.Fatalf("queued() = %d, want %d", got, n)
	}
	blocks := f.writeBlocks()
	if len(blocks) != 1 || len(blocks[0]) != 2 || blocks[0][0] != 0|runBit || blocks[0][1] != n {
		t.Fatalf("write level = %d blocks, first %v; want one run pair (0, %d)", len(blocks), blocks[0][:min(len(blocks[0]), 4)], n)
	}
	for want := uint64(0); want < n; want++ {
		if got, ok, _ := f.pop(); !ok || got != want {
			t.Fatalf("pop = %d, %v; want %d", got, ok, want)
		}
	}
	if _, ok, _ := f.pop(); ok {
		t.Fatal("pop past the run must report the frontier drained")
	}
}
