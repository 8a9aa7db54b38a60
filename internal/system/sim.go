package system

import (
	"fmt"

	"atcsim/internal/cache"
	"atcsim/internal/cpu"
	"atcsim/internal/dram"
	"atcsim/internal/mem"
	"atcsim/internal/prefetch"
	"atcsim/internal/ptw"
	"atcsim/internal/stats"
	"atcsim/internal/telemetry"
	"atcsim/internal/tlb"
	"atcsim/internal/trace"
	"atcsim/internal/vm"
	"atcsim/internal/xlat"
)

// coreCtx is the per-hardware-thread state of a run.
type coreCtx struct {
	id int
	tr *trace.Trace
	// pc is the index of the next instruction in tr.Insts; the trace
	// replays cyclically, so it wraps to 0 at the end.
	pc     int
	core   *cpu.Core
	bp     *cpu.Perceptron
	mmu    *ptw.MMU
	l1i    *cache.Cache
	l1d    *cache.Cache
	l2     *cache.Cache
	stlb   *tlb.TLB
	lastIL mem.Addr

	// l1iPath and l1dPath are where the core issues fetches and data
	// accesses: the caches themselves under analytic timing, their queued
	// wrappers under queued timing.
	l1iPath cache.Lower
	l1dPath cache.Lower

	// req is the per-core scratch request reused across steps. Each cache
	// level keeps its own scratch for writebacks/prefetches, and the request
	// is fully consumed before step returns, so one per core suffices.
	req mem.Request

	replayService stats.ServiceDist
	lastLoadDone  int64

	phaseCount int
	done       bool
	baseCycle  int64
	doneCycle  int64
}

// sim is a fully wired machine.
type sim struct {
	cfg     Config
	cores   []*coreCtx
	l1ds    []*cache.Cache // distinct L1D instances (1 for SMT)
	l2s     []*cache.Cache
	llc     *cache.Cache
	channel *dram.Controller

	// queued holds the per-level deque wrappers in creation order (LLC
	// first, then each core group's L2/L1D/L1I); draining walks the slice
	// in reverse so upper levels flush into lower queues before those
	// drain. Empty under analytic timing.
	queued []*cache.Queued

	// Observability (all nil/false when telemetry is disabled; the phase
	// loop then pays one predictable branch per instruction).
	tracer    *telemetry.Tracer
	hb        *telemetry.Heartbeat
	hbEvery   uint64
	onTick    func(telemetry.Snapshot)
	progress  *telemetry.Progress
	measuring bool
	stepped   uint64 // measured instructions stepped (all cores)
	ticked    uint64 // stepped count at the last heartbeat tick

	// Invariant auditing (Config.CheckInvariants or the atcsim_invariants
	// build tag): every checkStride instructions the structural state of
	// all models is validated; violations panic.
	checking bool
	checkCtr int
}

// Run simulates a single-core machine over one trace.
func Run(cfg Config, tr *trace.Trace) (*Result, error) {
	s, err := build(cfg, []*trace.Trace{tr}, false)
	if err != nil {
		return nil, err
	}
	return s.run(), nil
}

// RunSMT simulates a 2-way SMT core: both hardware threads share the entire
// cache hierarchy and split the ROB, matching the paper's SMT setup.
func RunSMT(cfg Config, t0, t1 *trace.Trace) (*Result, error) {
	cfg.CPU.ROBSize = defaultedROB(cfg.CPU) / 2
	s, err := build(cfg, []*trace.Trace{t0, t1}, true)
	if err != nil {
		return nil, err
	}
	return s.run(), nil
}

// RunMulti simulates one core per trace with private L1/L2/TLBs and a
// shared LLC and DRAM channel. The LLC capacity scales with the core count
// (2MB/slice per Table I); the extra slices add ways so the set count stays
// a power of two.
func RunMulti(cfg Config, traces []*trace.Trace) (*Result, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("system: no traces")
	}
	cfg.LLC.SizeBytes *= len(traces)
	cfg.LLC.Ways *= len(traces)
	// Table I: one DDR5 channel per four cores.
	if cfg.DRAM.Channels < (len(traces)+3)/4 {
		cfg.DRAM.Channels = (len(traces) + 3) / 4
	}
	s, err := build(cfg, traces, false)
	if err != nil {
		return nil, err
	}
	return s.run(), nil
}

func defaultedROB(c cpu.Config) int {
	if c.ROBSize > 0 {
		return c.ROBSize
	}
	return cpu.DefaultConfig().ROBSize
}

// build wires the machine. shareCoreCaches makes all threads share one
// L1I/L1D/L2 (SMT); otherwise those are private and only LLC/DRAM are
// shared.
func build(cfg Config, traces []*trace.Trace, shareCoreCaches bool) (*sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for i, tr := range traces {
		if tr == nil || len(tr.Insts) == 0 {
			return nil, fmt.Errorf("system: trace %d is empty", i)
		}
	}

	alloc, err := vm.NewFrameAllocator(cfg.PhysBits, !cfg.NoScatterFrames)
	if err != nil {
		return nil, err
	}
	channel := dram.NewController(cfg.DRAM)

	llcCfg := cfg.LLC
	llcCfg.TrackRecall = cfg.TrackRecall
	llc, err := cache.New(llcCfg, cache.DRAMAdapter{Read: channel.Read, Write: channel.Write})
	if err != nil {
		return nil, err
	}
	if cfg.TEMPO {
		channel.SetTEMPO(func(line mem.Addr, cycle int64) {
			llc.Prefetch(line, cycle, true)
		})
	}

	s := &sim{cfg: cfg, llc: llc, channel: channel}
	s.checking = cfg.CheckInvariants || invariantsDefault

	// Under queued timing every level sits behind a cache.Queued wrapper;
	// lower-pointer chaining goes through the wrappers so evict writebacks
	// land in the next level's write queue.
	queued := cfg.queuedTiming()
	qconf := func(level mem.Level) cache.QueueConfig {
		if cfg.Queues != nil {
			return *cfg.Queues
		}
		return cache.DefaultQueueConfig(level)
	}
	llcPath := cache.Lower(llc)
	if queued {
		q := cache.NewQueued(llc, qconf(mem.LvlLLC))
		s.queued = append(s.queued, q)
		llcPath = q
	}

	// coreCaches bundles one core group's caches with the access paths the
	// core (and walker) issue into.
	type coreCaches struct {
		l1i, l1d, l2     *cache.Cache
		l1iPath, l1dPath cache.Lower
	}
	var shared *coreCaches
	newCoreCaches := func() (coreCaches, error) {
		var cc coreCaches
		l2Cfg := cfg.L2
		l2Cfg.TrackRecall = cfg.TrackRecall
		l2, err := cache.New(l2Cfg, llcPath)
		if err != nil {
			return cc, err
		}
		if pf, err := prefetch.New(cfg.L2Prefetcher, prefetch.Options{Degree: cfg.PrefetchDegree}); err != nil {
			return cc, err
		} else if pf != nil {
			l2.AttachPrefetcher(pf)
		}
		l2Path := cache.Lower(l2)
		if queued {
			q := cache.NewQueued(l2, qconf(mem.LvlL2))
			s.queued = append(s.queued, q)
			l2Path = q
		}
		l1d, err := cache.New(cfg.L1D, l2Path)
		if err != nil {
			return cc, err
		}
		l1i, err := cache.New(cfg.L1I, l2Path)
		if err != nil {
			return cc, err
		}
		cc = coreCaches{l1i: l1i, l1d: l1d, l2: l2, l1iPath: l1i, l1dPath: l1d}
		if queued {
			qd := cache.NewQueued(l1d, qconf(mem.LvlL1D))
			qi := cache.NewQueued(l1i, qconf(mem.LvlL1D))
			s.queued = append(s.queued, qd, qi)
			cc.l1dPath, cc.l1iPath = qd, qi
		}
		return cc, nil
	}

	for i, tr := range traces {
		var cc coreCaches
		if shareCoreCaches {
			if shared == nil {
				cc, err = newCoreCaches()
				if err != nil {
					return nil, err
				}
				shared = &cc
				s.l1ds = append(s.l1ds, cc.l1d)
				s.l2s = append(s.l2s, cc.l2)
			}
			cc = *shared
		} else {
			cc, err = newCoreCaches()
			if err != nil {
				return nil, err
			}
			s.l1ds = append(s.l1ds, cc.l1d)
			s.l2s = append(s.l2s, cc.l2)
		}
		l1i, l1d, l2 := cc.l1i, cc.l1d, cc.l2

		pt, err := vm.NewPageTable(alloc)
		if err != nil {
			return nil, err
		}
		if cfg.HugePages {
			if err := pt.SetHugePages(true); err != nil {
				return nil, err
			}
		}
		if len(traces) > 1 && !shareCoreCaches {
			if err := prefault(pt, tr); err != nil {
				return nil, err
			}
		}
		psc := tlb.NewPSC(cfg.PSC)
		walker, err := ptw.NewWalker(pt, psc, cc.l1dPath, i)
		if err != nil {
			return nil, err
		}
		if cfg.PageWalkers > 0 {
			walker.SetConcurrentWalks(cfg.PageWalkers)
		}
		stlbCfg := cfg.STLB
		stlbCfg.TrackRecall = cfg.TrackRecall
		dtlb, err := tlb.New(cfg.DTLB)
		if err != nil {
			return nil, err
		}
		itlb, err := tlb.New(cfg.ITLB)
		if err != nil {
			return nil, err
		}
		stlb, err := tlb.New(stlbCfg)
		if err != nil {
			return nil, err
		}
		mmu, err := ptw.NewMMU(dtlb, itlb, stlb, walker)
		if err != nil {
			return nil, err
		}
		mech, err := xlat.New(cfg.Mechanism, xlat.Deps{
			L2: l2, LLC: llc, STLB: stlb,
			Oracle:            pt.Translate,
			CheckTranslations: s.checking,
		})
		if err != nil {
			return nil, err
		}
		mmu.SetMechanism(mech)

		// The L1D prefetcher (IPCP) needs virtual→physical translation with
		// TLB-probe semantics for cross-page candidates.
		if cfg.L1DPrefetcher != "" && cfg.L1DPrefetcher != "none" {
			translate := func(va mem.Addr) (mem.Addr, bool) {
				if pa, ok := mmu.Probe(va); ok {
					return pa, true
				}
				pa, err := mmu.Known(va)
				if err != nil {
					return 0, false
				}
				return pa, false
			}
			pf, err := prefetch.New(cfg.L1DPrefetcher, prefetch.Options{Translate: translate, Degree: cfg.PrefetchDegree})
			if err != nil {
				return nil, err
			}
			if pf != nil && (!shareCoreCaches || i == 0) {
				l1d.AttachPrefetcher(pf)
			}
		}

		core, err := cpu.New(cfg.CPU)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, &coreCtx{
			id:      i,
			tr:      tr,
			core:    core,
			bp:      cpu.NewPerceptron(),
			mmu:     mmu,
			l1i:     l1i,
			l1d:     l1d,
			l2:      l2,
			stlb:    stlb,
			lastIL:  ^mem.Addr(0),
			l1iPath: cc.l1iPath,
			l1dPath: cc.l1dPath,
		})
	}

	// Observability wiring: hooks are nil-safe, so only the enabled
	// facilities cost anything.
	s.tracer = cfg.Telemetry.TracerOrNil()
	s.hb = cfg.Telemetry.HeartbeatOrNil()
	s.hbEvery = uint64(s.hb.Every())
	s.onTick = cfg.Telemetry.OnTickOrNil()
	s.progress = cfg.Telemetry.ProgressOrNil()
	if s.tracer != nil {
		s.llc.SetTracer(s.tracer)
		s.channel.SetTracer(s.tracer)
		for _, c := range s.cores {
			c.core.SetTracer(s.tracer, c.id)
			c.mmu.SetTracer(s.tracer)
			c.l1i.SetTracer(s.tracer)
			c.l1d.SetTracer(s.tracer)
			c.l2.SetTracer(s.tracer)
		}
	}
	return s, nil
}

// prefault maps every page a core's trace will touch — instruction and data
// — before the run starts. build calls it, in core order, for every machine
// with more than one trace and private hierarchies. Cores share one frame
// allocator, so demand paging would hand out frames in an order set by how
// the cores' first touches interleave, which shifts with anything that
// moves timing: the mechanism, a prefetcher, TEMPO. Prefaulted, frames
// depend only on the traces, so every config compared on one mix (baseline
// vs TEMPO, atp vs victima, with and without a prefetcher) runs on the same
// physical layout.
func prefault(pt *vm.PageTable, tr *trace.Trace) error {
	seen := make(map[mem.Addr]struct{}, 1024)
	touch := func(va mem.Addr) error {
		pn := mem.PageNumber(va)
		if _, ok := seen[pn]; ok {
			return nil
		}
		seen[pn] = struct{}{}
		_, err := pt.Translate(va)
		return err
	}
	for i := range tr.Insts {
		in := &tr.Insts[i]
		if err := touch(in.IP); err != nil {
			return err
		}
		if in.Op == trace.OpLoad || in.Op == trace.OpStore {
			if err := touch(in.Addr); err != nil {
				return err
			}
		}
	}
	return nil
}

// step executes one instruction on core c.
func (s *sim) step(c *coreCtx) {
	in := &c.tr.Insts[c.pc]
	if c.pc++; c.pc == len(c.tr.Insts) {
		c.pc = 0 // replay the trace cyclically
	}

	d := c.core.NextDispatch()

	// Instruction fetch on line transitions; pipelined fetch hides the L1I
	// hit latency, so only the excess stalls the frontend.
	if il := mem.LineAddr(in.IP); il != c.lastIL {
		c.lastIL = il
		tr, err := c.mmu.TranslateInstr(in.IP, in.IP, d)
		if err == nil {
			c.req = mem.Request{Addr: tr.PA, VAddr: in.IP, IP: in.IP, Kind: mem.IFetch, Core: c.id}
			res := c.l1iPath.Access(&c.req, tr.Ready)
			if eff := res.Ready - s.cfg.L1I.Latency; eff > d {
				c.core.FrontendStall(eff)
				d = c.core.NextDispatch()
			}
		}
	}

	exec := c.core.Config().ExecLatency
	switch in.Op {
	case trace.OpALU:
		c.core.Dispatch(cpu.Entry{Complete: d + exec})

	case trace.OpBranch:
		c.core.CountBranch()
		if !c.bp.Update(uint64(in.IP), in.Taken) {
			c.core.Mispredict(d + exec)
		}
		c.core.Dispatch(cpu.Entry{Complete: d + exec})

	case trace.OpLoad:
		issueAt := d
		if in.Dep && c.lastLoadDone > issueAt {
			// Pointer chase: the address comes from the previous load.
			issueAt = c.lastLoadDone
		}
		s.tracer.BeginSample(c.id, "load", in.IP, in.Addr, issueAt)
		tr, err := c.mmu.Translate(in.Addr, in.IP, issueAt)
		if err != nil {
			s.tracer.EndSample("load", d+exec)
			c.core.Dispatch(cpu.Entry{Complete: d + exec})
			return
		}
		c.req = mem.Request{
			Addr: tr.PA, VAddr: in.Addr, IP: in.IP,
			Kind: mem.Load, IsReplay: tr.STLBMiss, Core: c.id,
		}
		issue := tr.Ready
		if tr.STLBMiss {
			// The replay re-issues through TLB fills and the scheduler —
			// the window ATP's prefetch overlaps.
			issue += s.cfg.ReplayIssueDelay
			if s.tracer.Active() {
				s.tracer.Span("request", "replay-issue", telemetry.LaneRequest, tr.Ready, issue)
			}
		}
		res := c.l1dPath.Access(&c.req, issue)
		if tr.STLBMiss {
			c.replayService.Record(res.Src)
		}
		s.tracer.EndSample("load", res.Ready)
		c.lastLoadDone = res.Ready
		c.core.Dispatch(cpu.Entry{
			Complete:  res.Ready,
			IsLoad:    true,
			STLBMiss:  tr.STLBMiss,
			TransDone: tr.Ready,
		})

	case trace.OpStore:
		s.tracer.BeginSample(c.id, "store", in.IP, in.Addr, d)
		tr, err := c.mmu.Translate(in.Addr, in.IP, d)
		if err != nil {
			s.tracer.EndSample("store", d+exec)
			c.core.Dispatch(cpu.Entry{Complete: d + exec})
			return
		}
		c.req = mem.Request{
			Addr: tr.PA, VAddr: in.Addr, IP: in.IP,
			Kind: mem.Store, IsReplay: tr.STLBMiss, Core: c.id,
		}
		c.l1dPath.Access(&c.req, tr.Ready)
		// Stores retire once translated (store-buffer commit); the write
		// drains in the background.
		complete := d + exec
		if tr.Ready > complete {
			complete = tr.Ready
		}
		s.tracer.EndSample("store", complete)
		c.core.Dispatch(cpu.Entry{Complete: complete})
	}
}

// phase runs every core for target instructions, interleaving cores on the
// shared virtual clock (least-advanced core first). Cores that reach the
// target keep running — preserving contention — until all are done; their
// completion cycle is recorded at the target boundary.
func (s *sim) phase(target int) {
	for _, c := range s.cores {
		c.phaseCount = 0
		c.done = false
	}
	remaining := len(s.cores)
	for remaining > 0 {
		// Pick the least-advanced core.
		var pick *coreCtx
		var best int64
		for _, c := range s.cores {
			if d := c.core.NextDispatch(); pick == nil || d < best {
				pick, best = c, d
			}
		}
		s.step(pick)
		pick.phaseCount++
		if s.checking {
			if s.checkCtr++; s.checkCtr >= checkStride {
				s.checkCtr = 0
				s.auditInvariants()
			}
		}
		if s.measuring {
			s.stepped++
			if s.hb != nil && s.stepped%s.hbEvery == 0 {
				s.heartbeatTick()
			}
			if s.progress != nil && s.stepped&8191 == 0 {
				s.progress.Set(s.stepped)
			}
		}
		if !pick.done && pick.phaseCount >= target {
			pick.done = true
			pick.doneCycle = pick.core.Cycle()
			remaining--
		}
	}
}

// drainQueued flushes every queued wrapper, upper levels first so their
// retiring entries (and evict writebacks) land in the lower queues before
// those drain. A no-op under analytic timing.
func (s *sim) drainQueued() {
	for i := len(s.queued) - 1; i >= 0; i-- {
		s.queued[i].Drain()
	}
}

func (s *sim) resetStats() {
	// In-flight queue entries carry pre-reset work; finish them so the
	// measured phase starts from empty deques.
	s.drainQueued()
	// The hierarchy has at most 3 distinct core caches per core; a small
	// slice beats a map allocation here (SMT cores share cache instances,
	// so dedup is still required).
	seen := make([]*cache.Cache, 0, 3*len(s.cores))
	for _, c := range s.cores {
		c.core.ResetStats()
		c.mmu.ResetStats()
		c.replayService.Reset()
		for _, ca := range []*cache.Cache{c.l1i, c.l1d, c.l2} {
			dup := false
			for _, p := range seen {
				if p == ca {
					dup = true
					break
				}
			}
			if !dup {
				ca.ResetStats()
				seen = append(seen, ca)
			}
		}
	}
	s.llc.ResetStats()
	s.channel.ResetStats()
	for _, q := range s.queued {
		q.ResetStats()
	}
}

// heartbeatTick feeds the current cumulative snapshot to the heartbeat
// engine and, when a Hub.OnTick bridge is installed, to the live metrics
// gauges. OnTick rides the heartbeat cadence, so live scraping costs
// nothing between ticks.
func (s *sim) heartbeatTick() {
	sn := s.snapshot()
	s.hb.Tick(sn)
	if s.onTick != nil {
		s.onTick(sn)
	}
	s.ticked = s.stepped
}

// snapshot collects the cumulative counters the heartbeat engine differences
// into interval rows. All fields count from the start of the measured phase.
func (s *sim) snapshot() telemetry.Snapshot {
	var sn telemetry.Snapshot
	for _, c := range s.cores {
		if cyc := c.core.Cycle() - c.baseCycle; cyc > sn.Cycle {
			sn.Cycle = cyc
		}
		cst := c.core.Stats()
		sn.Instructions += cst.Instructions
		for k := 0; k < telemetry.NumStallKinds; k++ {
			sn.Stalls[k] += cst.StallCycles[k]
		}
		mst := c.mmu.Stats()
		sn.STLBAccesses += mst.STLBAccesses
		sn.STLBMisses += mst.STLBMisses
		wst := c.mmu.W.Stats()
		sn.LeafReads += wst.LeafService.Total()
		sn.LeafDRAM += wst.LeafService.Count[mem.LvlDRAM]
	}
	for _, l1d := range s.l1ds {
		st := l1d.Stats()
		for cl := mem.Class(0); cl < mem.NumClasses; cl++ {
			sn.L1DMisses[cl] += st.Miss[cl]
		}
	}
	for _, l2 := range s.l2s {
		st := l2.Stats()
		for cl := mem.Class(0); cl < mem.NumClasses; cl++ {
			sn.L2Misses[cl] += st.Miss[cl]
		}
	}
	llc := s.llc.Stats()
	for cl := mem.Class(0); cl < mem.NumClasses; cl++ {
		sn.LLCMisses[cl] = llc.Miss[cl]
	}
	d := s.channel.Stats()
	sn.DRAMReads = d.Reads
	sn.DRAMRowHits = d.RowHits
	sn.DRAMRowClosed = d.RowClosed
	sn.DRAMRowMisses = d.RowMisses
	return sn
}

// run executes warmup + measurement and collects results.
func (s *sim) run() *Result {
	if s.cfg.Warmup > 0 {
		s.phase(s.cfg.Warmup)
	}
	s.resetStats()
	for _, c := range s.cores {
		c.baseCycle = c.core.Cycle()
	}
	if s.progress != nil {
		s.progress.SetTotal(uint64(s.cfg.Instructions) * uint64(len(s.cores)))
	}
	if s.hb != nil {
		// Measurement-start baseline: the first interval rows difference
		// against freshly reset counters.
		s.hb.Begin(s.snapshot())
	}
	s.measuring = true
	s.phase(s.cfg.Instructions)
	s.measuring = false
	if s.hb != nil && s.stepped > s.ticked {
		// Flush the final partial interval so the rows' instruction counts
		// sum to the measured total.
		s.heartbeatTick()
	}
	if s.progress != nil {
		s.progress.Set(s.stepped)
	}
	// Flush in-flight queue entries so collected stats (fills, writebacks,
	// backpressure counters) cover every measured request.
	s.drainQueued()
	if s.checking {
		s.auditInvariants()
	}
	return s.collect()
}
