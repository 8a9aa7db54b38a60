package benchmarks

import (
	"testing"

	"atcsim/internal/dram"
	"atcsim/internal/mem"
	"atcsim/internal/tlb"
)

// These tests pin the zero-allocation invariant of the per-request hot path
// (see DESIGN.md, "Performance"): once a simulation reaches steady state, a
// cache hit, a TLB hit, a DRAM slot booking and a page walk over mapped pages
// must not touch the heap.
// They complement the -benchmem CI gate with a hard in-repo assertion.

func skipIfInstrumented(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector defeats escape analysis")
	}
	if invariantsEnabled {
		t.Skip("atcsim_invariants audit passes are not allocation-free")
	}
}

func TestZeroAllocCacheHit(t *testing.T) {
	skipIfInstrumented(t)
	l1 := buildHierarchy(t, "ship")
	req := &mem.Request{Addr: 0x1000, Kind: mem.Load, IP: 1}
	l1.Access(req, 0) // warm the line in
	cycle := int64(100)
	allocs := testing.AllocsPerRun(1000, func() {
		l1.Access(req, cycle)
		cycle += 10
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %v objects per access, want 0", allocs)
	}
}

func TestZeroAllocTLBHit(t *testing.T) {
	skipIfInstrumented(t)
	stlb, err := tlb.New(tlb.Config{Name: "STLB", Entries: 2048, Ways: 8, Latency: 8})
	if err != nil {
		t.Fatal(err)
	}
	const pages = 256
	for i := 0; i < pages; i++ {
		va := mem.Addr(i) * mem.PageSize
		stlb.Insert(va, mem.Addr(0x10000+i)*mem.PageSize)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		va := mem.Addr(i%pages) * mem.PageSize
		if _, hit := stlb.Lookup(va); !hit {
			t.Fatal("expected hit")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("TLB hit allocates %v objects per lookup, want 0", allocs)
	}
}

func TestZeroAllocDRAMSlotBooking(t *testing.T) {
	skipIfInstrumented(t)
	ch := dram.New(dram.DefaultConfig())
	req := &mem.Request{Kind: mem.Load}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		req.Addr = mem.Addr(i%1024) * 4096
		ch.Read(req, int64(i)*8)
		i++
	})
	if allocs != 0 {
		t.Fatalf("DRAM read allocates %v objects per booking, want 0", allocs)
	}
}

func TestZeroAllocPageWalk(t *testing.T) {
	skipIfInstrumented(t)
	w := newWarmWalker(t)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := w.Walk(warmVA(i), 7, int64(warmPages+i)*100); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm page walk allocates %v objects per walk, want 0", allocs)
	}
}
