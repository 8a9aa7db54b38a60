// Package ptw implements the hardware page-table walker and the MMU frontend
// (DTLB/ITLB → STLB → walker) of one core.
//
// A walk first probes the paging-structure caches to skip upper levels, then
// reads one PTE line per remaining level *through the data-cache hierarchy*
// (L1D → L2C → LLC → DRAM), sequentially — each level's read depends on the
// previous one. The leaf-level read carries the paper's extra walker state:
// the IsLeafLevel flag (mem.Request.Level == 1) and the replay line target
// (VA bits 11:6 combined with the translated frame), which is what lets ATP
// at the L2C/LLC and TEMPO at the DRAM controller prefetch the replay load.
package ptw

import (
	"fmt"

	"atcsim/internal/cache"
	"atcsim/internal/mem"
	"atcsim/internal/stats"
	"atcsim/internal/telemetry"
	"atcsim/internal/tlb"
	"atcsim/internal/vm"
	"atcsim/internal/xlat"
)

// WalkerStats aggregates walker activity.
type WalkerStats struct {
	Walks    uint64 // completed page walks
	PTEReads uint64 // PTE lines read through the cache hierarchy
	// StepsPerLevel counts PTE reads by level (index 1..5).
	StepsPerLevel [mem.PTLevels + 1]uint64
	// LeafService records which hierarchy level serviced leaf PTE reads
	// (the "T" series of the paper's Fig. 3).
	LeafService stats.ServiceDist
}

// DefaultConcurrentWalks is the number of page walks the hardware walker
// can have in flight (Sunny Cove ships two page walkers). This serializes
// bursts of STLB misses, which is what exposes replay-load latency at the
// ROB head (the paper's Fig. 1).
const DefaultConcurrentWalks = 2

// Walker walks the page table through the cache hierarchy.
type Walker struct {
	pt      *vm.PageTable
	psc     *tlb.PSC
	path    cache.Lower
	st      WalkerStats
	core    int
	slots   []int64 // completion times of in-flight walks
	maxSlot int
	tr      *telemetry.Tracer

	// Scratch state reused across walks: the step buffer handed to
	// vm.WalkInto and the PTE-read request issued into the cache path. A
	// walk issues its reads sequentially and each request is consumed by
	// the hierarchy before the next begins, so one of each suffices.
	steps []vm.WalkStep
	req   mem.Request
}

// NewWalker wires a walker to a page table, paging-structure caches and the
// cache path its PTE reads enter (normally the L1D).
func NewWalker(pt *vm.PageTable, psc *tlb.PSC, path cache.Lower, core int) (*Walker, error) {
	if pt == nil || psc == nil || path == nil {
		return nil, fmt.Errorf("ptw: nil dependency")
	}
	return &Walker{
		pt: pt, psc: psc, path: path, core: core,
		maxSlot: DefaultConcurrentWalks,
	}, nil
}

// SetConcurrentWalks overrides the number of in-flight walks (≥1).
func (w *Walker) SetConcurrentWalks(n int) {
	if n < 1 {
		n = 1
	}
	w.maxSlot = n
}

// admit returns the cycle at which a new walk may start, given the walker
// occupancy; completed walks are pruned lazily.
func (w *Walker) admit(cycle int64) int64 {
	live := w.slots[:0]
	for _, r := range w.slots {
		if r > cycle {
			live = append(live, r)
		}
	}
	w.slots = live
	if len(w.slots) < w.maxSlot {
		return cycle
	}
	minI := 0
	for i, r := range w.slots {
		if r < w.slots[minI] {
			minI = i
		}
	}
	start := w.slots[minI]
	w.slots[minI] = w.slots[len(w.slots)-1]
	w.slots = w.slots[:len(w.slots)-1]
	return start
}

// SetTracer attaches a request-lifecycle tracer (nil disables): each PTE
// read of a sampled walk becomes a span on the PTW lane.
func (w *Walker) SetTracer(t *telemetry.Tracer) { w.tr = t }

// Stats returns a snapshot of walker counters.
func (w *Walker) Stats() WalkerStats { return w.st }

// PSCStats returns a snapshot of the paging-structure-cache counters.
func (w *Walker) PSCStats() tlb.PSCStats { return w.psc.Stats() }

// ResetStats zeroes the counters.
func (w *Walker) ResetStats() { w.st = WalkerStats{}; w.psc.ResetStats() }

// WalkResult reports the outcome of a page-table walk.
type WalkResult struct {
	// PA is the translated physical address for the faulting access.
	PA mem.Addr
	// Ready is the cycle the translation becomes available.
	Ready int64
	// LeafSrc is the hierarchy level that serviced the leaf PTE read.
	LeafSrc mem.Level
	// Steps is the number of PTE reads performed.
	Steps int
	// Huge reports a 2MB mapping (leaf at level 2).
	Huge bool
}

// Walk translates va starting at the given cycle, reading PTEs through the
// cache path. ip is the triggering instruction's pointer (inherited by the
// PTE reads, which is exactly the signature aliasing the paper fixes).
func (w *Walker) Walk(va, ip mem.Addr, cycle int64) (WalkResult, error) {
	w.st.Walks++
	// A free page walker must be available.
	cycle = w.admit(cycle)
	start := w.psc.Lookup(va)
	cur := cycle + 1 // one-cycle parallel PSC lookup (Table I)
	if w.tr.Active() {
		w.tr.Instant("ptw", "psc", telemetry.LanePTW,
			telemetry.IArg("start_level", int64(start)))
	}

	steps, pa, err := w.pt.WalkInto(va, start, w.steps[:0])
	if err != nil {
		return WalkResult{}, err
	}
	w.steps = steps[:0]
	var leafSrc mem.Level
	for _, s := range steps {
		w.req = mem.Request{
			Addr:  s.PTEAddr,
			VAddr: va,
			IP:    ip,
			Kind:  mem.Translation,
			Level: s.Level,
			Leaf:  s.Leaf,
			Core:  w.core,
		}
		req := &w.req
		if s.Leaf {
			// The walker carries VA[11:6]; combined with the PTE's frame it
			// identifies the replay line (precomputed here — see DESIGN.md).
			req.ReplayTarget = mem.LineBase(pa)
		}
		stepStart := cur
		res := w.path.Access(req, cur)
		cur = res.Ready
		if w.tr.Active() {
			w.tr.SpanOn(w.core, "ptw", walkStepName(s.Level, s.Leaf), telemetry.LanePTW,
				stepStart, res.Ready, telemetry.SArg("src", res.Src.String()))
		}
		w.st.PTEReads++
		w.st.StepsPerLevel[s.Level]++
		if s.Leaf {
			leafSrc = res.Src
			w.st.LeafService.Record(res.Src)
		} else {
			// Reading a level-k PTE yields the pointer to the level-(k-1)
			// table: fill PSCL-k.
			w.psc.Insert(va, s.Level, s.Next)
		}
	}
	w.slots = append(w.slots, cur)
	return WalkResult{
		PA: pa, Ready: cur, LeafSrc: leafSrc, Steps: len(steps),
		Huge: w.pt.HugePages(),
	}, nil
}

// walkStepName labels one PTE read for the tracer; static strings so the
// enabled path does not format.
func walkStepName(level int, leaf bool) string {
	if leaf {
		if level == 2 {
			return "walk L2 (huge leaf)"
		}
		return "walk L1 (leaf)"
	}
	switch level {
	case 2:
		return "walk L2"
	case 3:
		return "walk L3"
	case 4:
		return "walk L4"
	case 5:
		return "walk L5"
	}
	return "walk"
}

// MMUStats aggregates per-core translation activity.
type MMUStats struct {
	// DTLBAccesses/DTLBMisses count data-side first-level lookups;
	// the ITLB pair counts instruction-side lookups.
	DTLBAccesses, DTLBMisses, ITLBAccesses, ITLBMisses uint64
	// STLBAccesses/STLBMisses count second-level lookups; an STLB miss is
	// what hands the translation to the xlat mechanism.
	STLBAccesses, STLBMisses uint64
}

// MMU is the translation frontend of one core: first-level TLBs, the
// unified STLB and the page-table walker. STLB misses are delegated to a
// pluggable xlat.Mechanism (the atp passthrough by default), which decides
// how the miss is serviced — a hardware walk, a cache-resident TLB block,
// or a speculative fetch racing a verification walk.
type MMU struct {
	// DTLB, ITLB and STLB are the core's TLBs (ITLB aliases DTLB when the
	// core models a unified first level).
	DTLB, ITLB, STLB *tlb.TLB
	// W is the hardware page-table walker.
	W      *Walker
	st     MMUStats
	tr     *telemetry.Tracer
	mech   xlat.Mechanism
	walkFn xlat.WalkFn // pre-bound walkOutcome: no per-translate closure
}

// NewMMU assembles an MMU with the default (atp) translation mechanism.
func NewMMU(dtlb, itlb, stlb *tlb.TLB, w *Walker) (*MMU, error) {
	if dtlb == nil || stlb == nil || w == nil {
		return nil, fmt.Errorf("ptw: MMU needs dtlb, stlb and walker")
	}
	if itlb == nil {
		itlb = dtlb
	}
	m := &MMU{DTLB: dtlb, ITLB: itlb, STLB: stlb, W: w}
	m.mech = xlat.MustNew(xlat.DefaultName, xlat.Deps{})
	m.walkFn = m.walkOutcome
	return m, nil
}

// SetMechanism replaces the translation mechanism servicing STLB misses.
// Call before simulation starts: mechanisms carry warm state.
func (m *MMU) SetMechanism(mech xlat.Mechanism) {
	if mech != nil {
		m.mech = mech
	}
}

// Mechanism returns the active translation mechanism.
func (m *MMU) Mechanism() xlat.Mechanism { return m.mech }

// walkOutcome adapts Walker.Walk to the xlat.WalkFn contract.
func (m *MMU) walkOutcome(va, ip mem.Addr, cycle int64) (xlat.Outcome, error) {
	res, err := m.W.Walk(va, ip, cycle)
	if err != nil {
		return xlat.Outcome{}, err
	}
	return xlat.Outcome{
		PA: res.PA, Ready: res.Ready, LeafSrc: res.LeafSrc,
		Steps: res.Steps, Huge: res.Huge,
	}, nil
}

// SetTracer attaches a request-lifecycle tracer to the MMU and propagates it
// to the TLBs and the walker (nil disables).
func (m *MMU) SetTracer(t *telemetry.Tracer) {
	m.tr = t
	m.DTLB.SetTracer(t)
	if m.ITLB != m.DTLB {
		m.ITLB.SetTracer(t)
	}
	m.STLB.SetTracer(t)
	m.W.SetTracer(t)
}

// Stats returns a snapshot of the MMU counters.
func (m *MMU) Stats() MMUStats { return m.st }

// ResetStats zeroes the MMU, TLB and walker counters.
func (m *MMU) ResetStats() {
	m.st = MMUStats{}
	m.DTLB.ResetStats()
	if m.ITLB != m.DTLB {
		m.ITLB.ResetStats()
	}
	m.STLB.ResetStats()
	m.W.ResetStats()
	m.mech.ResetStats()
}

// Translation is the outcome of an address translation.
type Translation struct {
	// PA is the physical address.
	PA mem.Addr
	// Ready is the cycle the physical address is available.
	Ready int64
	// STLBMiss reports that the translation walked the page table — the
	// subsequent data access is a *replay load* in the paper's taxonomy.
	STLBMiss bool
	// LeafSrc is the level that serviced the leaf PTE (valid iff STLBMiss).
	LeafSrc mem.Level
}

// Translate resolves va for a data access issued at the given cycle.
func (m *MMU) Translate(va, ip mem.Addr, cycle int64) (Translation, error) {
	return m.translate(m.DTLB, va, ip, cycle, &m.st.DTLBAccesses, &m.st.DTLBMisses)
}

// TranslateInstr resolves va for an instruction fetch.
func (m *MMU) TranslateInstr(va, ip mem.Addr, cycle int64) (Translation, error) {
	return m.translate(m.ITLB, va, ip, cycle, &m.st.ITLBAccesses, &m.st.ITLBMisses)
}

func (m *MMU) translate(l1 *tlb.TLB, va, ip mem.Addr, cycle int64, acc, miss *uint64) (Translation, error) {
	*acc++
	cur := cycle + l1.Latency()
	if frame, hit := l1.Lookup(va); hit {
		if m.tr.Active() {
			m.tr.Span("mmu", l1.Name(), telemetry.LaneMMU, cycle, cur,
				telemetry.SArg("result", "hit"))
		}
		return Translation{PA: frame | mem.PageOffset(va), Ready: cur}, nil
	}
	*miss++
	m.st.STLBAccesses++
	if m.tr.Active() {
		m.tr.Span("mmu", l1.Name(), telemetry.LaneMMU, cycle, cur,
			telemetry.SArg("result", "miss"))
	}
	stlbStart := cur
	cur += m.STLB.Latency()
	if frame, hit := m.STLB.Lookup(va); hit {
		if m.tr.Active() {
			m.tr.Span("mmu", m.STLB.Name(), telemetry.LaneMMU, stlbStart, cur,
				telemetry.SArg("result", "hit"))
		}
		l1.Insert(va, frame)
		return Translation{PA: frame | mem.PageOffset(va), Ready: cur}, nil
	}
	m.st.STLBMisses++
	if m.tr.Active() {
		m.tr.Span("mmu", m.STLB.Name(), telemetry.LaneMMU, stlbStart, cur,
			telemetry.SArg("result", "miss"))
	}
	res, err := m.mech.Translate(va, ip, cur, m.walkFn)
	if err != nil {
		return Translation{}, err
	}
	if m.tr.Active() {
		m.tr.Span("mmu", "page-walk", telemetry.LaneMMU, cur, res.Ready,
			telemetry.IArg("steps", int64(res.Steps)),
			telemetry.SArg("leaf_src", res.LeafSrc.String()))
	}
	if res.Huge {
		frame := mem.HugePageBase(res.PA)
		m.STLB.InsertHuge(va, frame)
		l1.InsertHuge(va, frame)
	} else {
		frame := mem.PageBase(res.PA)
		m.STLB.Insert(va, frame)
		l1.Insert(va, frame)
	}
	return Translation{PA: res.PA, Ready: res.Ready, STLBMiss: true, LeafSrc: res.LeafSrc}, nil
}

// Probe checks whether va currently translates without a walk (DTLB or STLB
// hit), without disturbing statistics or LRU state more than a real probe
// port would. It is used by cross-page prefetchers (IPCP) that consult the
// STLB before issuing.
func (m *MMU) Probe(va mem.Addr) (pa mem.Addr, ok bool) {
	if frame, hit := m.DTLB.Lookup(va); hit {
		return frame | mem.PageOffset(va), true
	}
	if frame, hit := m.STLB.Lookup(va); hit {
		return frame | mem.PageOffset(va), true
	}
	return 0, false
}

// Known translates va through the simulator's page table without touching
// any hardware state — the oracle used by TEMPO-style DRAM prefetching and
// by tests.
func (m *MMU) Known(va mem.Addr) (mem.Addr, error) {
	return m.W.pt.Translate(va)
}
