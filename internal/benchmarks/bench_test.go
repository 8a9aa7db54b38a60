package benchmarks

import (
	"testing"

	"atcsim/internal/cache"
	"atcsim/internal/dram"
	"atcsim/internal/mem"
	"atcsim/internal/ptw"
	"atcsim/internal/tlb"
	"atcsim/internal/vm"
)

func buildHierarchy(b testing.TB, policy string) *cache.Cache {
	b.Helper()
	ch := dram.NewController(dram.DefaultConfig())
	llc, err := cache.New(cache.Config{
		Name: "LLC", Level: mem.LvlLLC, SizeBytes: 2 << 20, Ways: 16,
		Latency: 20, Policy: policy,
	}, cache.DRAMAdapter{Read: ch.Read, Write: ch.Write})
	if err != nil {
		b.Fatal(err)
	}
	l2, err := cache.New(cache.Config{
		Name: "L2", Level: mem.LvlL2, SizeBytes: 512 << 10, Ways: 8,
		Latency: 10, Policy: "drrip",
	}, llc)
	if err != nil {
		b.Fatal(err)
	}
	l1, err := cache.New(cache.Config{
		Name: "L1D", Level: mem.LvlL1D, SizeBytes: 48 << 10, Ways: 12,
		Latency: 5, Policy: "lru",
	}, l2)
	if err != nil {
		b.Fatal(err)
	}
	return l1
}

// BenchmarkCacheAccessHit measures the steady-state L1 hit path.
func BenchmarkCacheAccessHit(b *testing.B) {
	l1 := buildHierarchy(b, "ship")
	req := &mem.Request{Addr: 0x1000, Kind: mem.Load, IP: 1}
	l1.Access(req, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1.Access(req, int64(i)*10+100)
	}
}

// BenchmarkCacheAccessMissStream measures the full miss path through three
// levels into DRAM with a striding address.
func BenchmarkCacheAccessMissStream(b *testing.B) {
	l1 := buildHierarchy(b, "ship")
	req := &mem.Request{Kind: mem.Load, IP: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Addr = mem.Addr(i) * 8192
		l1.Access(req, int64(i)*50)
	}
}

// BenchmarkDRAMRead measures a raw channel read.
func BenchmarkDRAMRead(b *testing.B) {
	ch := dram.New(dram.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Read(&mem.Request{Addr: mem.Addr(i) * 4096, Kind: mem.Load}, int64(i)*20)
	}
}

// newWalker builds a page-table walker over a fresh, empty page table whose
// PTE reads enter a three-level cache hierarchy.
func newWalker(tb testing.TB) *ptw.Walker {
	tb.Helper()
	alloc, err := vm.NewFrameAllocator(33, true)
	if err != nil {
		tb.Fatal(err)
	}
	pt, err := vm.NewPageTable(alloc)
	if err != nil {
		tb.Fatal(err)
	}
	psc := tlb.NewPSC(tlb.DefaultPSCSizes())
	w, err := ptw.NewWalker(pt, psc, buildHierarchy(tb, "ship"), 0)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// BenchmarkPageWalkCold measures demand paging: each iteration walks a page
// no earlier iteration touched (until b.N passes 1M pages), so the walk
// allocates the data frame and, every 512 pages, a leaf table.
func BenchmarkPageWalkCold(b *testing.B) {
	w := newWalker(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Wrap within 1M pages so arbitrarily large b.N cannot exhaust the
		// physical frame allocator.
		va := mem.Addr(i%(1<<20)) * mem.PageSize
		if _, err := w.Walk(va, 7, int64(i)*100); err != nil {
			b.Fatal(err)
		}
	}
}

// Warm walk working set: one page per leaf PTE line of warmTables leaf
// tables that share one level-2 table but are not adjacent.
const (
	warmTables   = 64
	warmPerTable = mem.PageSize / mem.LineSize // PTE lines in a table page
	warmPages    = warmTables * warmPerTable
)

// warmVA returns the i-th page of the warm working set, visiting pages in
// a scattered order (1237 is odd, so i*1237 permutes the set).
func warmVA(i int) mem.Addr {
	p := i * 1237 % warmPages
	table, line := p/warmPerTable, p%warmPerTable
	return mem.Addr(table*7+3)<<mem.HugePageBits + mem.Addr(line*mem.PTEsPerLine)<<mem.PageBits
}

// newWarmWalker returns a walker whose page table already maps the warm
// working set and whose caches and PSCs have seen it once.
func newWarmWalker(tb testing.TB) *ptw.Walker {
	tb.Helper()
	w := newWalker(tb)
	for i := 0; i < warmPages; i++ {
		if _, err := w.Walk(warmVA(i), 7, int64(i)*100); err != nil {
			tb.Fatal(err)
		}
	}
	return w
}

// BenchmarkPageWalkWarm measures a steady-state page walk: the working set
// is mapped and the level-3 PSC always hits. The 64 leaf tables overflow the
// 32-entry PSCL2 and the 4096 leaf PTE lines (256 KiB) overflow the L1D, so
// every walk reads two PTE lines and its leaf read is served by the L2.
func BenchmarkPageWalkWarm(b *testing.B) {
	w := newWarmWalker(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Walk(warmVA(i), 7, int64(warmPages+i)*100); err != nil {
			b.Fatal(err)
		}
	}
}
