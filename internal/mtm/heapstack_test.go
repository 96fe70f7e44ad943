package mtm

import (
	"errors"

	"repro/internal/pheap"
	"repro/internal/pmem"
	"repro/internal/region"
	"repro/internal/scm"
)

// heapStack is a runtime, a heap, a TM with that heap attached and one data
// page, all hanging off static pointers named after the test, so the same
// call opens the stack again over the device a crash left behind.
type heapStack struct {
	rt       *region.Runtime
	heap     *pheap.Heap
	heapBase pmem.Addr
	tm       *TM
	data     pmem.Addr
}

// openHeapStack opens the stack, creating whatever a crash during set-up
// left missing (which an oracle then sees as the empty state).
func openHeapStack(dev *scm.Device, dir, name string, cfg Config, heapSize int64) (*heapStack, error) {
	rt, err := region.Open(dev, region.Config{Dir: dir, StaticSize: 64 << 10})
	if err != nil {
		return nil, err
	}
	s := &heapStack{rt: rt}
	mapAt := func(what string, size int64) (pmem.Addr, error) {
		ptr, _, err := rt.Static("mtm."+name+"."+what, 8)
		if err != nil {
			return pmem.Nil, err
		}
		if a := pmem.Addr(rt.NewMemory().LoadU64(ptr)); a != pmem.Nil {
			return a, nil
		}
		return rt.PMapAt(ptr, size, 0)
	}
	fail := func(err error) (*heapStack, error) {
		rt.Close()
		return nil, err
	}
	if s.heapBase, err = mapAt("heap", heapSize); err != nil {
		return fail(err)
	}
	s.heap, err = pheap.Open(rt, s.heapBase)
	if errors.Is(err, pheap.ErrNoHeap) {
		s.heap, err = pheap.Format(rt, s.heapBase, heapSize, pheap.Config{Lanes: 2})
	}
	if err != nil {
		return fail(err)
	}
	cfg.Heap = s.heap
	if s.tm, err = Open(rt, name, cfg); err != nil {
		return fail(err)
	}
	if s.data, err = mapAt("data", scm.PageSize); err != nil {
		return fail(err)
	}
	return s, nil
}

// allocatedSet returns the blocks the heap's volatile view holds allocated.
func allocatedSet(h *pheap.Heap) map[pmem.Addr]bool {
	set := map[pmem.Addr]bool{}
	h.ForEachAllocated(func(a pmem.Addr, _ int64) bool { set[a] = true; return true })
	return set
}

// runQueuedJobs does one round of the asynchronous log manager's work by
// hand, over everything queued so far, on a TM whose manager goroutine is
// stopped (tests that need the round to happen at a known point).
func runQueuedJobs(tm *TM, mem pmem.Memory) {
	var batch []truncJob
	for len(tm.mgr.jobs) > 0 {
		batch = append(batch, <-tm.mgr.jobs...)
	}
	if len(batch) > 0 {
		tm.mgr.process(mem, batch)
	}
}
