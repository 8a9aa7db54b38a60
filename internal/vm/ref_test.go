package vm

import (
	"fmt"
	"math/rand"
	"testing"

	"atcsim/internal/mem"
)

// refPageTable is the original map-based radix page table, kept as the
// reference the dense table is checked against. It descends the tree once
// to demand-allocate and a second time to emit the walk steps, and it logs
// every frame the allocator hands it in call order.
type refPageTable struct {
	alloc  *FrameAllocator
	root   *refNode
	pages  uint64
	huge   bool
	handed []mem.Addr
}

// refNode is one page-table page: slots that either point at a child node
// (levels above the leaf) or hold a leaf translation.
type refNode struct {
	frame    mem.Addr
	children map[uint16]*refNode
	leaves   map[uint16]mem.Addr
}

func newRefPageTable(alloc *FrameAllocator, huge bool) (*refPageTable, error) {
	rootFrame, err := alloc.AllocPT()
	if err != nil {
		return nil, err
	}
	return &refPageTable{
		alloc:  alloc,
		root:   &refNode{frame: rootFrame, children: make(map[uint16]*refNode)},
		huge:   huge,
		handed: []mem.Addr{rootFrame},
	}, nil
}

func (pt *refPageTable) leafLevel() int {
	if pt.huge {
		return 2
	}
	return 1
}

func (pt *refPageTable) pageMask() mem.Addr {
	if pt.huge {
		return mem.HugePageSize - 1
	}
	return mem.PageSize - 1
}

func (pt *refPageTable) Translate(va mem.Addr) (mem.Addr, error) {
	frame, err := pt.frameOf(va)
	if err != nil {
		return 0, err
	}
	return frame | va&pt.pageMask(), nil
}

func (pt *refPageTable) frameOf(va mem.Addr) (mem.Addr, error) {
	leaf := pt.leafLevel()
	n := pt.root
	for level := mem.PTLevels; level > leaf; level-- {
		idx := uint16(mem.VPNChunk(va, level))
		child, ok := n.children[idx]
		if !ok {
			frame, err := pt.alloc.AllocPT()
			if err != nil {
				return 0, err
			}
			pt.handed = append(pt.handed, frame)
			child = &refNode{frame: frame}
			if level > leaf+1 {
				child.children = make(map[uint16]*refNode)
			} else {
				child.leaves = make(map[uint16]mem.Addr)
			}
			n.children[idx] = child
		}
		n = child
	}
	idx := uint16(mem.VPNChunk(va, leaf))
	frame, ok := n.leaves[idx]
	if !ok {
		var err error
		if pt.huge {
			frame, err = pt.alloc.AllocHugeData()
		} else {
			frame, err = pt.alloc.AllocData()
		}
		if err != nil {
			return 0, err
		}
		pt.handed = append(pt.handed, frame)
		n.leaves[idx] = frame
		pt.pages++
	}
	return frame, nil
}

func (pt *refPageTable) Walk(va mem.Addr, startLevel int) ([]WalkStep, mem.Addr, error) {
	if startLevel < 1 || startLevel > mem.PTLevels {
		return nil, 0, fmt.Errorf("vm: bad start level %d", startLevel)
	}
	frame, err := pt.frameOf(va)
	if err != nil {
		return nil, 0, err
	}
	leaf := pt.leafLevel()
	var steps []WalkStep
	n := pt.root
	for level := mem.PTLevels; level > leaf; level-- {
		idx := uint16(mem.VPNChunk(va, level))
		child := n.children[idx]
		if level <= startLevel {
			steps = append(steps, WalkStep{
				Level:   level,
				PTEAddr: n.frame + mem.Addr(idx)*mem.PTESize,
				Next:    child.frame,
			})
		}
		n = child
	}
	idx := uint16(mem.VPNChunk(va, leaf))
	steps = append(steps, WalkStep{Level: leaf, PTEAddr: n.frame + mem.Addr(idx)*mem.PTESize, Leaf: true})
	return steps, frame | va&pt.pageMask(), nil
}

func (pt *refPageTable) NodeFrame(va mem.Addr, k int) (mem.Addr, bool) {
	if k <= pt.leafLevel() || k > mem.PTLevels {
		return 0, false
	}
	n := pt.root
	for level := mem.PTLevels; level >= k; level-- {
		child, ok := n.children[uint16(mem.VPNChunk(va, level))]
		if !ok {
			return 0, false
		}
		n = child
	}
	return n.frame, true
}

// handedFrames reconstructs, from the dense table's arena, the frames its
// allocator handed out since the arena held prevTables tables and the table
// mapped prevPages pages: the new tables top-down, then the data frame of a
// newly mapped page, whose translation is pa.
func handedFrames(pt *PageTable, prevTables int, prevPages uint64, pa mem.Addr) []mem.Addr {
	out := append([]mem.Addr(nil), pt.frames[prevTables:]...)
	if pt.pages > prevPages {
		out = append(out, pa&^pt.pageMask())
	}
	return out
}

// TestDensePageTableMatchesMapReference replays seeded sparse VA streams
// through the dense table and the map-based reference, each over its own
// identically configured allocator, and requires every observable to agree
// after every operation: the PA, every walk step (including Next), the
// NodeFrame of each interior level, the mapped page count, the allocator's
// frame count and the exact sequence of frames handed out. The small
// physical spaces run the allocator dry, so errors must agree too.
func TestDensePageTableMatchesMapReference(t *testing.T) {
	for _, physBits := range []int{22, 32} {
		for _, huge := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("phys%d/huge=%v/seed%d", physBits, huge, seed)
				t.Run(name, func(t *testing.T) {
					diffDenseAgainstRef(t, physBits, huge, seed, 4000)
				})
			}
		}
	}
}

func diffDenseAgainstRef(t *testing.T, physBits int, huge bool, seed int64, n int) {
	t.Helper()
	// Sparse regions so streams diverge at every radix level.
	bases := []mem.Addr{0, 1 << 30, 1 << 39, 1 << 48, 5 << 48}
	da, err := NewFrameAllocator(physBits, true)
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := NewFrameAllocator(physBits, true)
	dense, err := NewPageTable(da)
	if err != nil {
		t.Fatal(err)
	}
	if err := dense.SetHugePages(huge); err != nil {
		t.Fatal(err)
	}
	ref, err := newRefPageTable(ra, huge)
	if err != nil {
		t.Fatal(err)
	}
	if dense.frames[0] != ref.handed[0] {
		t.Fatalf("root frame: dense %#x, reference %#x", dense.frames[0], ref.handed[0])
	}

	r := rand.New(rand.NewSource(seed))
	var buf []WalkStep
	var errs int
	var touched []mem.Addr
	for i := 0; i < n; i++ {
		// Pages spread over 64 regions of 2MB per base, so both 4KB and
		// huge mode see shared and fresh tables at every level. Half the
		// operations revisit a page touched earlier (the first one, backed
		// by physical frame 0 in 4KB mode, included), which must keep its
		// frame.
		var va mem.Addr
		if len(touched) > 0 && r.Intn(2) == 0 {
			va = touched[r.Intn(len(touched))]
		} else {
			va = bases[r.Intn(len(bases))] +
				mem.Addr(r.Intn(64))<<mem.HugePageBits +
				mem.Addr(r.Intn(512))<<mem.PageBits + mem.Addr(r.Intn(mem.PageSize))
			touched = append(touched, va)
		}
		prevTables, prevPages, prevHanded := len(dense.frames), dense.pages, len(ref.handed)

		var dPA, rPA mem.Addr
		var dErr, rErr error
		var dSteps, rSteps []WalkStep
		start := r.Intn(mem.PTLevels + 1) // 0 means Translate
		if start == 0 {
			dPA, dErr = dense.Translate(va)
			rPA, rErr = ref.Translate(va)
		} else {
			dSteps, dPA, dErr = dense.WalkInto(va, start, buf[:0])
			rSteps, rPA, rErr = ref.Walk(va, start)
			buf = dSteps
		}
		where := fmt.Sprintf("op %d (va %#x, start %d)", i, va, start)
		if (dErr == nil) != (rErr == nil) {
			t.Fatalf("%s: dense err %v, reference err %v", where, dErr, rErr)
		}
		if dErr != nil {
			if dErr.Error() != rErr.Error() {
				t.Fatalf("%s: dense err %q, reference err %q", where, dErr, rErr)
			}
			errs++
		}
		if dPA != rPA {
			t.Fatalf("%s: dense PA %#x, reference PA %#x", where, dPA, rPA)
		}
		if len(dSteps) != len(rSteps) {
			t.Fatalf("%s: dense %d steps, reference %d", where, len(dSteps), len(rSteps))
		}
		for j := range dSteps {
			if dSteps[j] != rSteps[j] {
				t.Fatalf("%s: step %d dense %+v, reference %+v", where, j, dSteps[j], rSteps[j])
			}
		}
		for k := 2; k <= mem.PTLevels; k++ {
			df, dok := dense.NodeFrame(va, k)
			rf, rok := ref.NodeFrame(va, k)
			if df != rf || dok != rok {
				t.Fatalf("%s: NodeFrame(%d) dense (%#x,%v), reference (%#x,%v)", where, k, df, dok, rf, rok)
			}
		}
		if dense.MappedPages() != ref.pages {
			t.Fatalf("%s: dense maps %d pages, reference %d", where, dense.MappedPages(), ref.pages)
		}
		if da.Allocated() != ra.Allocated() {
			t.Fatalf("%s: dense allocator handed %d frames, reference %d", where, da.Allocated(), ra.Allocated())
		}
		got := handedFrames(dense, prevTables, prevPages, dPA)
		want := ref.handed[prevHanded:]
		if len(got) != len(want) {
			t.Fatalf("%s: dense received %d frames, reference %d", where, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("%s: frame %d handed out: dense %#x, reference %#x", where, j, got[j], want[j])
			}
		}
	}
	if physBits == 22 && errs == 0 {
		t.Errorf("%d ops never exhausted a 2^%d-byte physical space", n, physBits)
	}
}
