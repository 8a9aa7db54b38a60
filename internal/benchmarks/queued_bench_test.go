package benchmarks

import (
	"testing"

	"atcsim/internal/cache"
	"atcsim/internal/dram"
	"atcsim/internal/mem"
)

// buildQueuedHierarchy assembles the same three-level hierarchy as
// buildHierarchy with a cache.Queued wrapper interposed at every level, the
// way internal/system wires the "queued" timing engine: each level's lower
// pointer is the next level's wrapper, so fills and writebacks flow through
// the bounded deques.
func buildQueuedHierarchy(b testing.TB) *cache.Queued {
	b.Helper()
	ch := dram.NewController(dram.DefaultConfig())
	llc, err := cache.New(cache.Config{
		Name: "LLC", Level: mem.LvlLLC, SizeBytes: 2 << 20, Ways: 16,
		Latency: 20, Policy: "ship",
	}, cache.DRAMAdapter{Read: ch.Read, Write: ch.Write})
	if err != nil {
		b.Fatal(err)
	}
	qllc := cache.NewQueued(llc, cache.DefaultQueueConfig(mem.LvlLLC))
	l2, err := cache.New(cache.Config{
		Name: "L2", Level: mem.LvlL2, SizeBytes: 512 << 10, Ways: 8,
		Latency: 10, Policy: "drrip",
	}, qllc)
	if err != nil {
		b.Fatal(err)
	}
	ql2 := cache.NewQueued(l2, cache.DefaultQueueConfig(mem.LvlL2))
	l1, err := cache.New(cache.Config{
		Name: "L1D", Level: mem.LvlL1D, SizeBytes: 48 << 10, Ways: 12,
		Latency: 5, Policy: "lru",
	}, ql2)
	if err != nil {
		b.Fatal(err)
	}
	return cache.NewQueued(l1, cache.DefaultQueueConfig(mem.LvlL1D))
}

// BenchmarkQueuedAccessHit measures the steady-state L1 hit through the
// queued engine: catch-up, write-queue scan, read-queue push and the
// step that services the hit.
func BenchmarkQueuedAccessHit(b *testing.B) {
	q := buildQueuedHierarchy(b)
	req := &mem.Request{Addr: 0x1000, Kind: mem.Load, IP: 1}
	q.Access(req, 0)
	q.Drain()
	b.ResetTimer()
	cycle := int64(100)
	for i := 0; i < b.N; i++ {
		q.Access(req, cycle)
		cycle += 10
	}
}

// BenchmarkQueuedAccessMissStream measures the streaming-miss path: every
// access misses all three levels, books DRAM and carries fills (and the
// resulting evictions) back up through the deques. Misses arrive faster
// than fills return, so the L1 read queue stays full and most accesses
// stall on it, jumping from one retire event to the next.
func BenchmarkQueuedAccessMissStream(b *testing.B) {
	q := buildQueuedHierarchy(b)
	req := &mem.Request{Kind: mem.Load, IP: 2}
	b.ResetTimer()
	cycle := int64(0)
	for i := 0; i < b.N; i++ {
		req.Addr = mem.Addr(i) << 6
		q.Access(req, cycle)
		cycle += 10
	}
}

// TestZeroAllocQueuedAccessHit extends the zero-allocation invariant to the
// queued engine's operate path: once warm, a hit through the full
// wrapper stack (deque push, event stepping, retire) must not touch the
// heap — the rings are preallocated at construction.
func TestZeroAllocQueuedAccessHit(t *testing.T) {
	skipIfInstrumented(t)
	q := buildQueuedHierarchy(t)
	req := &mem.Request{Addr: 0x1000, Kind: mem.Load, IP: 1}
	q.Access(req, 0)
	q.Drain()
	cycle := int64(100)
	allocs := testing.AllocsPerRun(1000, func() {
		q.Access(req, cycle)
		cycle += 10
	})
	if allocs != 0 {
		t.Fatalf("queued cache hit allocates %v objects per access, want 0", allocs)
	}
}

// TestZeroAllocQueuedAccessMissStream pins the zero-allocation invariant on
// the paths a hit never reaches: read-queue-full stalls, the jumps over idle
// cycles between events, and misses carried through every level to DRAM.
// It fails if the stream stops stalling, since it would then no longer
// cover the stall path.
func TestZeroAllocQueuedAccessMissStream(t *testing.T) {
	skipIfInstrumented(t)
	q := buildQueuedHierarchy(t)
	req := &mem.Request{Kind: mem.Load, IP: 2}
	i, cycle := 0, int64(0)
	miss := func() {
		req.Addr = mem.Addr(i) << 6
		q.Access(req, cycle)
		i++
		cycle += 10
	}
	for i < 64 {
		miss() // fill the read queues
	}
	before := q.Stats().RQFull
	allocs := testing.AllocsPerRun(1000, miss)
	if allocs != 0 {
		t.Fatalf("queued miss stream allocates %v objects per access, want 0", allocs)
	}
	if q.Stats().RQFull == before {
		t.Fatal("miss stream never stalled on a full read queue")
	}
}
