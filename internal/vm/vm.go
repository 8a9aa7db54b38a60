// Package vm models the operating system's memory management as seen by the
// hardware: a physical frame allocator and a five-level radix page table
// whose page-table entries live at real physical addresses (eight 8-byte
// PTEs per 64-byte cache line). The page-table walker in internal/ptw reads
// those PTE lines through the data-cache hierarchy, which is what lets the
// caches compete translations against data — the paper's central tension.
package vm

import (
	"fmt"

	"atcsim/internal/mem"
)

// FrameAllocator hands out physical page frames. Data frames are scattered
// across the physical space with a multiplicative permutation — a
// deterministic stand-in for the pseudo-random frame assignment of a
// long-running OS — so that virtually contiguous pages do not enjoy
// artificial DRAM row or cache set locality. 2MB huge frames come from a
// disjoint contiguous region, and page-table frames from a third, which
// matches the clustered kernel allocations real systems see.
type FrameAllocator struct {
	physBits   int
	nextData   uint64
	nextPT     uint64
	nextHuge   uint64 // huge frames allocated so far
	hugeBase   uint64 // first frame of the huge region
	hugeTop    uint64 // frame bound of the huge region
	maxData    uint64
	maxPT      uint64
	ptBase     uint64 // frame number where the page-table region starts
	scatter    bool
	frameCount uint64
	mult       uint64
}

// NewFrameAllocator creates an allocator managing 2^physBits bytes of
// physical memory. The top 1/8 of frames is reserved for page tables.
// Scatter enables the permutation for 4KB data frames.
func NewFrameAllocator(physBits int, scatter bool) (*FrameAllocator, error) {
	if physBits < 22 || physBits > 48 {
		return nil, fmt.Errorf("vm: physBits %d out of range [22,48]", physBits)
	}
	frames := uint64(1) << (physBits - mem.PageBits)
	dataRegion := frames - frames/8
	a := &FrameAllocator{
		physBits: physBits,
		// The data region is split statically: 4KB frames scatter over the
		// lower three quarters, 2MB huge frames are carved contiguously
		// from the upper quarter, so the two kinds can never collide.
		maxData:  dataRegion * 3 / 4,
		hugeBase: (dataRegion*3/4 + framesPerHuge - 1) &^ (framesPerHuge - 1),
		hugeTop:  dataRegion &^ (framesPerHuge - 1),
		ptBase:   frames - frames/8,
		maxPT:    frames / 8,
		scatter:  scatter,
	}
	// Pick a multiplier coprime with the 4KB-frame count so that
	// fn -> fn*mult mod maxData is a permutation.
	a.mult = 2654435761 % a.maxData
	for gcd(a.mult, a.maxData) != 1 {
		a.mult++
	}
	return a, nil
}

func gcd(x, y uint64) uint64 {
	for y != 0 {
		x, y = y, x%y
	}
	return x
}

// AllocData returns the base physical address of a fresh data frame.
func (a *FrameAllocator) AllocData() (mem.Addr, error) {
	if a.nextData >= a.maxData {
		return 0, fmt.Errorf("vm: out of data frames (%d allocated)", a.nextData)
	}
	fn := a.nextData
	a.nextData++
	a.frameCount++
	if a.scatter {
		// Multiplicative permutation: injective, deterministic, and spreads
		// consecutive allocations across the physical space the way a
		// long-running OS's free list would.
		fn = fn * a.mult % a.maxData
	}
	return mem.Addr(fn) << mem.PageBits, nil
}

// AllocPT returns the base physical address of a fresh page-table frame.
func (a *FrameAllocator) AllocPT() (mem.Addr, error) {
	if a.nextPT >= a.maxPT {
		return 0, fmt.Errorf("vm: out of page-table frames (%d allocated)", a.nextPT)
	}
	fn := a.ptBase + a.nextPT
	a.nextPT++
	a.frameCount++
	return mem.Addr(fn) << mem.PageBits, nil
}

// framesPerHuge is the number of 4KB frames in one 2MB huge frame.
const framesPerHuge = mem.HugePageSize / mem.PageSize

// AllocHugeData returns the base physical address of a fresh 2MB-aligned
// huge frame, carved contiguously from the huge region (huge pages are
// physically contiguous by definition, so the scatter model does not
// apply).
func (a *FrameAllocator) AllocHugeData() (mem.Addr, error) {
	base := a.hugeBase + a.nextHuge
	if base+framesPerHuge > a.hugeTop {
		return 0, fmt.Errorf("vm: out of huge frames (%d allocated)", a.nextHuge/framesPerHuge)
	}
	a.nextHuge += framesPerHuge
	a.frameCount += framesPerHuge
	return mem.Addr(base) << mem.PageBits, nil
}

// Allocated returns the total number of frames handed out.
func (a *FrameAllocator) Allocated() uint64 { return a.frameCount }

// tableSlots is the number of 8-byte PTEs in one 4 KiB page-table page.
const tableSlots = mem.PageSize / mem.PTESize

// table is one page-table page laid out as hardware lays it out: 512 slots
// indexed by the VA's radix chunk at the table's level. An interior slot
// holds the child table's arena index plus one (zero means absent); a leaf
// slot holds the data frame base with the present bit set, because the
// scatter allocator's first data frame is physical frame 0.
type table [tableSlots]uint64

// present marks a mapped leaf slot. Frames are page aligned, so bit 0 is
// free in a leaf slot.
const present = 1

// WalkStep describes one level of a page-table walk: the physical address of
// the PTE the hardware walker must read and the level it belongs to.
type WalkStep struct {
	Level   int      // 5 (root) down to the leaf level
	PTEAddr mem.Addr // physical byte address of the 8-byte PTE
	Leaf    bool     // true on the step that yields the physical frame
	// Next is the frame of the level-(Level-1) table a non-leaf PTE points
	// to: what the hardware PTE holds and a PSC entry at Level caches.
	// Zero on the leaf step.
	Next mem.Addr
}

// PageTable is a five-level radix page table with demand paging: the first
// touch of a virtual page allocates its data frame and any missing interior
// table pages. With huge pages enabled, leaves live at level 2 and map 2MB
// frames (transparent huge pages, always-on). Table pages live in one
// pointer-free arena; tables[0] is the root.
type PageTable struct {
	alloc  *FrameAllocator
	tables []table
	frames []mem.Addr // frames[i] is the physical base of tables[i]
	pages  uint64
	huge   bool
}

// NewPageTable creates an empty table backed by the allocator.
func NewPageTable(alloc *FrameAllocator) (*PageTable, error) {
	if alloc == nil {
		return nil, fmt.Errorf("vm: nil allocator")
	}
	rootFrame, err := alloc.AllocPT()
	if err != nil {
		return nil, err
	}
	return &PageTable{
		alloc:  alloc,
		tables: make([]table, 1),
		frames: []mem.Addr{rootFrame},
	}, nil
}

// SetHugePages switches the table to 2MB mappings. It must be called before
// the first translation; afterwards it returns an error.
func (pt *PageTable) SetHugePages(on bool) error {
	if pt.pages > 0 {
		return fmt.Errorf("vm: cannot change page size after %d mappings", pt.pages)
	}
	pt.huge = on
	return nil
}

// HugePages reports whether the table maps 2MB pages.
func (pt *PageTable) HugePages() bool { return pt.huge }

// leafLevel is the page-table level whose entries hold physical frames.
func (pt *PageTable) leafLevel() int {
	if pt.huge {
		return 2
	}
	return 1
}

// pageMask is the offset mask of the mapped page size.
func (pt *PageTable) pageMask() mem.Addr {
	if pt.huge {
		return mem.HugePageSize - 1
	}
	return mem.PageSize - 1
}

// MappedPages returns the number of virtual pages mapped so far.
func (pt *PageTable) MappedPages() uint64 { return pt.pages }

// Translate maps a virtual address to its physical address, allocating the
// page (and any interior tables) on first touch.
func (pt *PageTable) Translate(va mem.Addr) (mem.Addr, error) {
	_, pa, err := pt.descend(va, 0, nil)
	return pa, err
}

// Walk returns the PTE reads a hardware walker performs for va, one per
// level from the root (level 5) down to the leaf (level 1, or level 2 with
// huge pages), allocating the mapping on first touch. startLevel trims the
// walk for paging-structure-cache hits: non-leaf steps above startLevel are
// skipped, so a PSC hit leaves fewer reads. The leaf step is always
// returned.
func (pt *PageTable) Walk(va mem.Addr, startLevel int) ([]WalkStep, mem.Addr, error) {
	return pt.WalkInto(va, startLevel, nil)
}

// WalkInto is Walk with a caller-provided scratch buffer: steps are appended
// to buf (normally buf[:0] of a reused slice), so steady-state walks do not
// allocate. The returned slice aliases buf's backing array when it fits.
func (pt *PageTable) WalkInto(va mem.Addr, startLevel int, buf []WalkStep) ([]WalkStep, mem.Addr, error) {
	if startLevel < 1 || startLevel > mem.PTLevels {
		return nil, 0, fmt.Errorf("vm: bad start level %d", startLevel)
	}
	return pt.descend(va, startLevel, buf)
}

// descend walks va's radix path from the root in one pass. Missing tables
// are allocated top-down and then the data frame, which fixes the order the
// allocator hands out frames. Non-leaf steps at or below startLevel and
// the leaf step are appended to buf; startLevel 0 appends none.
func (pt *PageTable) descend(va mem.Addr, startLevel int, buf []WalkStep) ([]WalkStep, mem.Addr, error) {
	leaf := pt.leafLevel()
	t := 0
	for level := mem.PTLevels; level > leaf; level-- {
		idx := mem.VPNChunk(va, level)
		child := pt.tables[t][idx]
		if child == 0 {
			frame, err := pt.alloc.AllocPT()
			if err != nil {
				return nil, 0, err
			}
			pt.tables = append(pt.tables, table{})
			pt.frames = append(pt.frames, frame)
			child = uint64(len(pt.tables))
			pt.tables[t][idx] = child
		}
		if level <= startLevel {
			buf = append(buf, WalkStep{
				Level:   level,
				PTEAddr: pt.frames[t] + mem.Addr(idx)*mem.PTESize,
				Next:    pt.frames[child-1],
			})
		}
		t = int(child - 1)
	}
	idx := mem.VPNChunk(va, leaf)
	pte := pt.tables[t][idx]
	if pte&present == 0 {
		var frame mem.Addr
		var err error
		if pt.huge {
			frame, err = pt.alloc.AllocHugeData()
		} else {
			frame, err = pt.alloc.AllocData()
		}
		if err != nil {
			return nil, 0, err
		}
		pte = uint64(frame) | present
		pt.tables[t][idx] = pte
		pt.pages++
	}
	if startLevel > 0 {
		buf = append(buf, WalkStep{
			Level:   leaf,
			PTEAddr: pt.frames[t] + mem.Addr(idx)*mem.PTESize,
			Leaf:    true,
		})
	}
	return buf, mem.Addr(pte&^present) | va&pt.pageMask(), nil
}

// NodeFrame returns the physical base address of the table page that a
// walker starting below level k would consult, i.e. the level-(k-1) table
// for va. It is what a paging-structure-cache entry at level k stores.
// k must be in [leafLevel+1, PTLevels]; the mapping must already exist.
// Walks report the same frame as WalkStep.Next; NodeFrame re-derives it
// from the root, which makes it the oracle for the PSC fills.
func (pt *PageTable) NodeFrame(va mem.Addr, k int) (mem.Addr, bool) {
	if k <= pt.leafLevel() || k > mem.PTLevels {
		return 0, false
	}
	t := 0
	for level := mem.PTLevels; level >= k; level-- {
		child := pt.tables[t][mem.VPNChunk(va, level)]
		if child == 0 {
			return 0, false
		}
		t = int(child - 1)
	}
	return pt.frames[t], true
}
