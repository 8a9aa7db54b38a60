package validate

import (
	"fmt"

	"atcsim/internal/cache"
	"atcsim/internal/mem"
	"atcsim/internal/ptw"
	"atcsim/internal/tlb"
	"atcsim/internal/vm"
)

// fixedLower terminates a cache under test with a fixed-latency backing
// store and counts the writebacks it receives.
type fixedLower struct {
	lat        int64
	writebacks uint64
}

func (f *fixedLower) Access(req *mem.Request, cycle int64) cache.Result {
	if req.Kind == mem.Writeback {
		f.writebacks++
		return cache.Result{Ready: cycle, Src: mem.LvlDRAM}
	}
	return cache.Result{Ready: cycle + f.lat, Src: mem.LvlDRAM}
}

// opSpacing is the cycle gap between consecutive ops in the differential
// drivers: larger than the stub lower's latency plus the lookup latency, so
// every fill has completed before the next access and the functional oracle
// (which has no timing) sees exactly the same machine.
const opSpacing = 16

func totalMisses(c *cache.Cache) uint64 {
	st := c.Stats()
	return st.TotalMiss()
}

func equalLines(a, b []mem.Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedLines(in []mem.Addr) []mem.Addr {
	out := append([]mem.Addr(nil), in...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// DiffCache replays ops through the real set-associative cache model under
// the "lru" policy and through the brute-force true-LRU oracle, comparing
// after every op: hit/miss outcome, the full contents of the accessed set
// (which pins down the eviction victim exactly), and — at the end — the
// total writeback count. It returns a descriptive error at the first
// divergence, nil when the models agree on the whole stream.
func DiffCache(ops []Op, sets, ways int) error {
	low := &fixedLower{lat: 8}
	c, err := cache.New(cache.Config{
		Name: "DUT", Level: mem.LvlL2,
		SizeBytes: sets * ways * mem.LineSize, Ways: ways,
		Latency: 1, MSHRs: 16, Policy: "lru",
	}, low)
	if err != nil {
		return err
	}
	oracle := NewOracleCache(sets, ways)

	cycle := int64(0)
	for i, op := range ops {
		cycle += opSpacing
		line := mem.LineAddr(op.Addr)
		set := int(uint64(line) % uint64(sets))
		before := sortedLines(c.SetContents(set))
		missesBefore := totalMisses(c)

		c.Access(op.request(0), cycle)

		realHit := totalMisses(c) == missesBefore
		var out OracleOutcome
		if op.Kind == mem.Writeback {
			out = oracle.AbsorbWriteback(op.Addr)
		} else {
			out = oracle.Access(op.Addr, op.Kind == mem.Store)
		}
		if realHit != out.Hit {
			return fmt.Errorf("op %d (%v %#x): model %s, oracle %s",
				i, op.Kind, op.Addr, hitMiss(realHit), hitMiss(out.Hit))
		}
		after := sortedLines(c.SetContents(set))
		if want := oracle.Contents(set); !equalLines(after, want) {
			return fmt.Errorf("op %d (%v %#x): set %d contents diverged: model %v, oracle %v",
				i, op.Kind, op.Addr, set, after, want)
		}
		if out.HasEvict {
			evicted, n := diffLines(before, after)
			if n != 1 || evicted != out.Evicted {
				return fmt.Errorf("op %d (%v %#x): eviction victim diverged: model evicted %d line(s) (%#x), oracle evicted %#x",
					i, op.Kind, op.Addr, n, evicted, out.Evicted)
			}
		}
		if i%1024 == 0 {
			if err := c.CheckInvariants(); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		return err
	}
	if low.writebacks != oracle.Writebacks() {
		return fmt.Errorf("writeback count diverged: model %d, oracle %d", low.writebacks, oracle.Writebacks())
	}
	return nil
}

func hitMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// diffLines returns the single element of before missing from after (both
// sorted) and how many elements differ that way.
func diffLines(before, after []mem.Addr) (mem.Addr, int) {
	var gone mem.Addr
	n := 0
	for _, b := range before {
		found := false
		for _, a := range after {
			if a == b {
				found = true
				break
			}
		}
		if !found {
			gone = b
			n++
		}
	}
	return gone, n
}

// frameFor fabricates a deterministic page-aligned physical frame for a
// virtual page, for TLB streams that do not involve a real page table.
func frameFor(vpn mem.Addr) mem.Addr {
	return mem.Addr(uint64(vpn)*2654435761+0x1000) << mem.PageBits
}

// DiffTLB replays a seeded virtual-address stream through the real
// set-associative TLB and the linear-scan oracle, comparing every lookup's
// hit/miss outcome and returned frame, and the final eviction counts.
func DiffTLB(entries, ways, n int, seed int64) error {
	real, err := tlb.New(tlb.Config{Name: "DUT", Entries: entries, Ways: ways, Latency: 1})
	if err != nil {
		return err
	}
	oracle := NewOracleTLB(entries, ways)
	r := newRNG(seed)

	pagePool := entries * 4
	hotPool := entries / 2
	for i := 0; i < n; i++ {
		var page int
		if r.intn(100) < 60 {
			page = r.intn(hotPool)
		} else {
			page = r.intn(pagePool)
		}
		va := mem.Addr(page)<<mem.PageBits | mem.Addr(r.intn(mem.PageSize))
		f1, h1 := real.Lookup(va)
		f2, h2 := oracle.Lookup(va)
		if h1 != h2 {
			return fmt.Errorf("lookup %d (va %#x): model %s, oracle %s", i, va, hitMiss(h1), hitMiss(h2))
		}
		if h1 && f1 != f2 {
			return fmt.Errorf("lookup %d (va %#x): model frame %#x, oracle frame %#x", i, va, f1, f2)
		}
		if !h1 {
			frame := frameFor(mem.PageNumber(va))
			real.Insert(va, frame)
			oracle.Insert(va, frame)
		} else if r.intn(100) == 0 {
			// Occasionally remap a resident page (Insert's refresh path).
			frame := frameFor(mem.PageNumber(va)) + mem.PageSize
			real.Insert(va, frame)
			oracle.Insert(va, frame)
		}
	}
	if err := real.CheckInvariants(); err != nil {
		return err
	}
	if err := oracle.Err(); err != nil {
		return err
	}
	if got, want := real.Stats().Evictions, oracle.Evictions(); got != want {
		return fmt.Errorf("eviction count diverged: model %d, oracle %d", got, want)
	}
	return nil
}

// DiffWalker replays random virtual addresses through the real page-table
// walker (with paging-structure caches) and checks every result against the
// naive oracle: the page table's own radix translation, and a full
// five-level walk whose step structure is re-derived independently (levels
// strictly descending to the leaf, each PTE address recomputed from the
// owning table's frame and the VA's radix chunk).
func DiffWalker(n int, seed int64, huge bool) error {
	alloc, err := vm.NewFrameAllocator(32, true)
	if err != nil {
		return err
	}
	pt, err := vm.NewPageTable(alloc)
	if err != nil {
		return err
	}
	if huge {
		if err := pt.SetHugePages(true); err != nil {
			return err
		}
	}
	psc := tlb.NewPSC(tlb.DefaultPSCSizes())
	walker, err := ptw.NewWalker(pt, psc, &fixedLower{lat: 20}, 0)
	if err != nil {
		return err
	}
	leaf := 1
	if huge {
		leaf = 2
	}

	r := newRNG(seed)
	// Spread pages over several sparse VA regions so walks disagree at
	// every radix level, not just the leaf.
	bases := []mem.Addr{0, 1 << 30, 1 << 39, 1 << 48, 5 << 48}
	cycle := int64(0)
	for i := 0; i < n; i++ {
		va := bases[r.intn(len(bases))] +
			mem.Addr(r.intn(2048))<<mem.PageBits + mem.Addr(r.intn(mem.PageSize))

		// Oracle: the radix table's own translation plus an un-trimmed walk.
		want, err := pt.Translate(va)
		if err != nil {
			return fmt.Errorf("walk %d (va %#x): oracle translate: %w", i, va, err)
		}
		full, fullPA, err := pt.Walk(va, mem.PTLevels)
		if err != nil {
			return fmt.Errorf("walk %d (va %#x): oracle walk: %w", i, va, err)
		}
		if fullPA != want {
			return fmt.Errorf("walk %d (va %#x): oracle walk PA %#x != translate PA %#x", i, va, fullPA, want)
		}
		if err := checkWalkSteps(pt, va, full, leaf); err != nil {
			return fmt.Errorf("walk %d (va %#x): %w", i, va, err)
		}

		cycle += 256
		res, err := walker.Walk(va, 0x40_0000, cycle)
		if err != nil {
			return fmt.Errorf("walk %d (va %#x): model: %w", i, va, err)
		}
		if res.PA != want {
			return fmt.Errorf("walk %d (va %#x): model PA %#x, oracle PA %#x", i, va, res.PA, want)
		}
		if res.Huge != huge {
			return fmt.Errorf("walk %d (va %#x): model huge=%v, table maps huge=%v", i, va, res.Huge, huge)
		}
		if res.Steps < 1 || res.Steps > len(full) {
			return fmt.Errorf("walk %d (va %#x): model performed %d PTE reads, full walk has %d",
				i, va, res.Steps, len(full))
		}
		if res.Ready <= cycle {
			return fmt.Errorf("walk %d (va %#x): ready %d not after issue %d", i, va, res.Ready, cycle)
		}
	}
	return walker.CheckInvariants()
}

// checkWalkSteps re-derives the structure of a full radix walk: levels
// descend one by one from the root to the leaf, exactly the last step is a
// leaf, every PTE address below the root equals the owning table's frame
// plus the VA's radix index at that level, and every non-leaf step's Next
// is the frame of the table its PTE points at (what the walker fills the
// PSC with).
func checkWalkSteps(pt *vm.PageTable, va mem.Addr, steps []vm.WalkStep, leaf int) error {
	if want := mem.PTLevels - leaf + 1; len(steps) != want {
		return fmt.Errorf("full walk has %d steps, want %d", len(steps), want)
	}
	for j, s := range steps {
		if wantLevel := mem.PTLevels - j; s.Level != wantLevel {
			return fmt.Errorf("step %d at level %d, want %d", j, s.Level, wantLevel)
		}
		if s.Leaf != (s.Level == leaf) {
			return fmt.Errorf("step %d (level %d) leaf flag %v", j, s.Level, s.Leaf)
		}
		if s.Level < mem.PTLevels {
			// The level-L PTE lives in the level-L table, whose frame the
			// oracle recovers via NodeFrame(va, L+1).
			tf, ok := pt.NodeFrame(va, s.Level+1)
			if !ok {
				return fmt.Errorf("step %d (level %d): oracle cannot locate table", j, s.Level)
			}
			want := tf + mem.Addr(mem.VPNChunk(va, s.Level))*mem.PTESize
			if s.PTEAddr != want {
				return fmt.Errorf("step %d (level %d): PTE address %#x, oracle computes %#x",
					j, s.Level, s.PTEAddr, want)
			}
		}
		if s.Leaf {
			if s.Next != 0 {
				return fmt.Errorf("step %d (leaf level %d) carries next-table frame %#x", j, s.Level, s.Next)
			}
		} else if next, ok := pt.NodeFrame(va, s.Level); !ok || s.Next != next {
			// A non-leaf PTE points at the level-(L-1) table: the frame the
			// walker inserts into PSCL-L.
			return fmt.Errorf("step %d (level %d): next-table frame %#x, oracle computes %#x (found %v)",
				j, s.Level, s.Next, next, ok)
		}
	}
	return nil
}

// DiffMMU replays a virtual-address stream through a complete MMU frontend
// (DTLB → STLB → walker) and mirrors the TLB ladder with two linear-scan
// oracles, asserting every translation's physical address matches the page
// table and the replay classification (STLBMiss) matches the oracle ladder.
func DiffMMU(n int, seed int64) error {
	alloc, err := vm.NewFrameAllocator(32, true)
	if err != nil {
		return err
	}
	pt, err := vm.NewPageTable(alloc)
	if err != nil {
		return err
	}
	psc := tlb.NewPSC(tlb.DefaultPSCSizes())
	walker, err := ptw.NewWalker(pt, psc, &fixedLower{lat: 20}, 0)
	if err != nil {
		return err
	}
	dtlb, err := tlb.New(tlb.Config{Name: "DTLB", Entries: 64, Ways: 4, Latency: 1})
	if err != nil {
		return err
	}
	stlb, err := tlb.New(tlb.Config{Name: "STLB", Entries: 256, Ways: 8, Latency: 8})
	if err != nil {
		return err
	}
	mmu, err := ptw.NewMMU(dtlb, nil, stlb, walker)
	if err != nil {
		return err
	}
	od := NewOracleTLB(64, 4)
	os := NewOracleTLB(256, 8)

	r := newRNG(seed)
	cycle := int64(0)
	for i := 0; i < n; i++ {
		var page int
		if r.intn(100) < 55 {
			page = r.intn(128) // DTLB/STLB-friendly hot pages
		} else {
			page = r.intn(4096) // beyond STLB reach: forces walks
		}
		va := mem.Addr(page)<<mem.PageBits | mem.Addr(r.intn(mem.PageSize))
		cycle += 512

		tr, err := mmu.Translate(va, 0x40_0000, cycle)
		if err != nil {
			return fmt.Errorf("translate %d (va %#x): %w", i, va, err)
		}
		want, err := pt.Translate(va)
		if err != nil {
			return fmt.Errorf("translate %d (va %#x): oracle: %w", i, va, err)
		}
		if tr.PA != want {
			return fmt.Errorf("translate %d (va %#x): model PA %#x, oracle PA %#x", i, va, tr.PA, want)
		}

		// Mirror the DTLB → STLB → walk ladder with the oracles.
		wantMiss := false
		if f, hit := od.Lookup(va); hit {
			if got := f | mem.PageOffset(va); got != want {
				return fmt.Errorf("translate %d (va %#x): oracle DTLB frame stale: %#x vs %#x", i, va, got, want)
			}
		} else if f, hit := os.Lookup(va); hit {
			od.Insert(va, f)
			if got := f | mem.PageOffset(va); got != want {
				return fmt.Errorf("translate %d (va %#x): oracle STLB frame stale: %#x vs %#x", i, va, got, want)
			}
		} else {
			wantMiss = true
			frame := mem.PageBase(want)
			os.Insert(va, frame)
			od.Insert(va, frame)
		}
		if tr.STLBMiss != wantMiss {
			return fmt.Errorf("translate %d (va %#x): model STLBMiss=%v, oracle ladder says %v",
				i, va, tr.STLBMiss, wantMiss)
		}
	}
	if err := mmu.CheckInvariants(); err != nil {
		return err
	}
	if err := od.Err(); err != nil {
		return err
	}
	return os.Err()
}

// PolicyHits replays a loads-only op stream through the real cache under
// the named replacement policy and returns its demand hit count — the
// number the OPT oracle upper-bounds.
func PolicyHits(policy string, ops []Op, sets, ways int) (uint64, error) {
	c, err := cache.New(cache.Config{
		Name: "DUT", Level: mem.LvlLLC,
		SizeBytes: sets * ways * mem.LineSize, Ways: ways,
		Latency: 1, MSHRs: 16, Policy: policy,
	}, &fixedLower{lat: 8})
	if err != nil {
		return 0, err
	}
	cycle := int64(0)
	for _, op := range ops {
		cycle += opSpacing
		c.Access(op.request(0), cycle)
	}
	if err := c.CheckInvariants(); err != nil {
		return 0, err
	}
	st := c.Stats()
	return st.TotalAccess() - st.TotalMiss(), nil
}

// Lines projects an op stream to its line-address sequence (the OPT
// oracle's input).
func Lines(ops []Op) []mem.Addr {
	out := make([]mem.Addr, len(ops))
	for i, op := range ops {
		out[i] = mem.LineAddr(op.Addr)
	}
	return out
}
