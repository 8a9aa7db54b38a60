package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"atcsim/internal/mem"
)

// refQueued drives a Queued the way the engine ran before it jumped over
// idle cycles: every wait loop steps one cycle at a time, and busy and
// processRQ rescan the read queue from its head. It is the reference the
// event-driven engine is held to; it keeps the pending count only so the
// two engines' invariant checks and state stay comparable.
type refQueued struct{ *Queued }

func (r refQueued) busy() bool {
	q := r.Queued
	if !q.wq.empty() || !q.pq.empty() || !q.vapq.empty() {
		return true
	}
	for i := 0; i < q.rq.len(); i++ {
		if !q.rq.at(i).done {
			return true
		}
	}
	return false
}

func (r refQueued) catchUp(cycle int64) {
	q := r.Queued
	for q.now < cycle {
		if !r.busy() {
			q.now = cycle
			q.retire()
			return
		}
		r.step()
	}
}

func (r refQueued) Drain() {
	q := r.Queued
	for r.busy() {
		r.step()
	}
	for !q.rq.empty() {
		if e := q.rq.at(0); e.res.Ready > q.now {
			q.now = e.res.Ready
		}
		q.retire()
	}
}

func (r refQueued) step() {
	q := r.Queued
	q.now++
	q.retire()
	q.drainWQ()
	q.stageVAPQ()
	q.processPQ(r.processRQ())
}

func (r refQueued) processRQ() int {
	q := r.Queued
	budget := q.qcfg.MaxRead
	for i := 0; i < q.rq.len() && budget > 0; i++ {
		e := q.rq.at(i)
		if e.done {
			continue
		}
		if e.enq >= q.now {
			break
		}
		if e.req.Kind != mem.Translation && !q.c.Contains(e.req.Addr) && q.c.mshrFull(q.now) {
			q.qst.MSHRFull++
			break
		}
		e.res = q.c.Access(&e.req, q.now)
		e.done = true
		q.pending--
		budget--
	}
	return budget
}

func (r refQueued) Access(req *mem.Request, cycle int64) Result {
	q := r.Queued
	r.catchUp(cycle)

	if req.Kind == mem.Writeback {
		for q.wq.full() {
			q.qst.WQFull++
			r.step()
		}
		q.seq++
		slot := q.wq.push()
		*slot = queueEntry{req: *req, line: mem.LineAddr(req.Addr), enq: q.now, seq: q.seq}
		return Result{Ready: q.now + q.c.cfg.Latency, Src: q.c.cfg.Level}
	}

	line := mem.LineAddr(req.Addr)
	if q.wq.find(line) {
		q.qst.WQForward++
		return Result{Ready: q.now + q.c.cfg.Latency, Src: q.c.cfg.Level}
	}
	if q.rq.find(line) {
		q.qst.RQMerged++
	}
	for q.rq.full() {
		q.qst.RQFull++
		r.step()
	}
	q.seq++
	e := q.rq.push()
	*e = queueEntry{req: *req, line: line, enq: q.now, seq: q.seq}
	q.pending++
	for !e.done {
		r.step()
	}
	return e.res
}

// busLower is a deterministic memory with one shared data bus: reads queue
// behind each other, and their latency varies with the address so fills
// complete out of issue order. It logs every call, so two hierarchies fed
// the same operations can be checked for the same traffic at the same
// cycles.
type busLower struct {
	busyUntil int64
	log       []string
}

func (b *busLower) Access(req *mem.Request, cycle int64) Result {
	b.log = append(b.log, fmt.Sprintf("%d %v %#x", cycle, req.Kind, req.Addr))
	if req.Kind == mem.Writeback {
		return Result{Ready: cycle, Src: mem.LvlDRAM}
	}
	start := max(cycle, b.busyUntil)
	b.busyUntil = start + 3
	return Result{Ready: start + 40 + int64(mem.LineAddr(req.Addr)%7)*15, Src: mem.LvlDRAM}
}

// nextLinePF suggests the next line after every demand access, dated up to
// five cycles in the future so the PQ holds entries that are not yet
// eligible.
type nextLinePF struct{}

func (nextLinePF) Name() string { return "next-line" }

func (nextLinePF) Train(req *mem.Request, _ bool, _ int64, out []Candidate) []Candidate {
	line := mem.LineAddr(req.Addr)
	return append(out, Candidate{Line: line + 1, Delay: int64(line % 6)})
}

// diffHier is a two-level queued hierarchy (L1 with a prefetcher, L2 with
// ATP) over a busLower. l1/l2 are the Lower entry points; with ref set they
// are refQueued wrappers over the same Queued values.
type diffHier struct {
	q1, q2 *Queued
	l1, l2 Lower
	dram   *busLower
}

func newDiffHier(t *testing.T, qcfg QueueConfig, mshrs int, ref bool) *diffHier {
	t.Helper()
	h := &diffHier{dram: &busLower{}}
	c2 := MustNew(Config{Name: "L2", Level: mem.LvlL2, SizeBytes: 2048, Ways: 4,
		Latency: 6, MSHRs: mshrs, Policy: "lru", ATP: true}, h.dram)
	h.q2 = NewQueued(c2, qcfg)
	h.l2 = h.q2
	if ref {
		h.l2 = refQueued{h.q2}
	}
	c1 := MustNew(Config{Name: "L1D", Level: mem.LvlL1D, SizeBytes: 512, Ways: 2,
		Latency: 2, MSHRs: mshrs, Policy: "lru"}, h.l2)
	c1.AttachPrefetcher(nextLinePF{})
	h.q1 = NewQueued(c1, qcfg)
	h.l1 = h.q1
	if ref {
		h.l1 = refQueued{h.q1}
	}
	return h
}

// diffOp is one operation of a generated stream: an access at a level, or a
// prefetch injected straight into a level's inner cache (the way ATP/TEMPO
// wiring calls Prefetch).
type diffOp struct {
	lvl      int
	cycle    int64
	req      mem.Request
	prefetch bool
	distant  bool
}

// genDiffOps draws a seeded bursty stream over a small footprint: most
// operations land on the same or the next cycle, a few jump ahead, so the
// queues fill, stall and sit idle in turn.
func genDiffOps(seed int64, n int) []diffOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]diffOp, n)
	cycle := int64(0)
	for i := range ops {
		switch p := rng.Intn(100); {
		case p < 60:
			cycle += int64(rng.Intn(2))
		case p < 90:
			cycle += int64(rng.Intn(20))
		default:
			cycle += int64(rng.Intn(400))
		}
		addr := mem.Addr(rng.Intn(192)) << mem.LineBits
		op := diffOp{cycle: cycle, req: mem.Request{Addr: addr, VAddr: addr, IP: 0x400000 + mem.Addr(rng.Intn(4))}}
		switch p := rng.Intn(100); {
		case p < 55:
			op.req.Kind = mem.Load
		case p < 70:
			op.req.Kind = mem.Store
		case p < 80:
			op.lvl = 1
			op.req.Kind = mem.Translation
			op.req.Level, op.req.Leaf = 1, true
			op.req.ReplayTarget = mem.Addr(rng.Intn(192)) << mem.LineBits
		case p < 90:
			op.lvl = rng.Intn(2)
			op.req.Kind = mem.Writeback
		default:
			op.lvl = rng.Intn(2)
			op.prefetch = true
			op.distant = rng.Intn(2) == 0
			op.cycle += int64(rng.Intn(8))
		}
		ops[i] = op
	}
	return ops
}

func (h *diffHier) apply(op diffOp) Result {
	if op.prefetch {
		q := h.q1
		if op.lvl == 1 {
			q = h.q2
		}
		ready := q.Inner().Prefetch(mem.LineAddr(op.req.Addr), op.cycle, op.distant)
		return Result{Ready: ready}
	}
	req := op.req
	if op.lvl == 1 {
		return h.l2.Access(&req, op.cycle)
	}
	return h.l1.Access(&req, op.cycle)
}

// queuedDiff reports the first difference between two Queued levels: clock,
// counters, pending count, every ring slot, and the inner cache's array,
// MSHRs and statistics.
func queuedDiff(a, b *Queued) string {
	switch {
	case a.now != b.now:
		return fmt.Sprintf("now %d vs %d", a.now, b.now)
	case a.Stats() != b.Stats():
		return fmt.Sprintf("queue stats %+v vs %+v", a.Stats(), b.Stats())
	case a.pending != b.pending || a.seq != b.seq:
		return fmt.Sprintf("pending/seq %d/%d vs %d/%d", a.pending, a.seq, b.pending, b.seq)
	}
	for _, r := range []struct {
		name string
		a, b *ring
	}{{"rq", &a.rq, &b.rq}, {"wq", &a.wq, &b.wq}, {"pq", &a.pq, &b.pq}, {"vapq", &a.vapq, &b.vapq}} {
		if !reflect.DeepEqual(*r.a, *r.b) {
			return fmt.Sprintf("%s ring %+v vs %+v", r.name, *r.a, *r.b)
		}
	}
	ca, cb := a.c, b.c
	switch {
	case !reflect.DeepEqual(ca.tags, cb.tags):
		return "inner tags differ"
	case !reflect.DeepEqual(ca.fillAt, cb.fillAt):
		return "inner fill times differ"
	case !reflect.DeepEqual(ca.meta, cb.meta):
		return "inner block metadata differs"
	case !reflect.DeepEqual(ca.mshr, cb.mshr):
		return fmt.Sprintf("inner MSHRs %v vs %v", ca.mshr, cb.mshr)
	case !reflect.DeepEqual(ca.Stats(), cb.Stats()):
		return fmt.Sprintf("inner stats %+v vs %+v", ca.Stats(), cb.Stats())
	}
	return ""
}

// TestQueuedEventEngineMatchesPerCycle replays seeded bursty streams through
// two identical hierarchies without draining between operations: one on the
// event-driven engine, one on the per-cycle reference loop. The lockstep
// harness in internal/validate drains after every request, so it cannot see
// a cycle skipped wrongly while work is still queued; this test compares the
// full engine state after every operation instead. Tiny queues and MSHRs make
// rq_full, wq_full, mshr_full, future-dated PQ entries and VAPQ staging all
// occur, and the test fails if any of them does not.
func TestQueuedEventEngineMatchesPerCycle(t *testing.T) {
	geoms := []struct {
		qcfg  QueueConfig
		mshrs int
	}{
		{QueueConfig{RQ: 2, WQ: 1, PQ: 2, VAPQ: 2, MaxRead: 1, MaxWrite: 1, VAPQLatency: 3}, 1},
		{QueueConfig{RQ: 3, WQ: 2, PQ: 1, VAPQ: 1, MaxRead: 2, MaxWrite: 1, VAPQLatency: 0}, 2},
		{QueueConfig{RQ: 4, WQ: 2, PQ: 3, VAPQ: 2, MaxRead: 2, MaxWrite: 2, VAPQLatency: 5}, 3},
	}
	var seen struct {
		rqFull, wqFull, mshrFull, vapqStaged, futurePQ uint64
	}
	for gi, g := range geoms {
		for seed := int64(1); seed <= 3; seed++ {
			ev := newDiffHier(t, g.qcfg, g.mshrs, false)
			ref := newDiffHier(t, g.qcfg, g.mshrs, true)
			for i, op := range genDiffOps(seed*100+int64(gi), 3000) {
				got, want := ev.apply(op), ref.apply(op)
				if got != want {
					t.Fatalf("geometry %d seed %d op %d (%+v): result %+v, per-cycle reference %+v",
						gi, seed, i, op, got, want)
				}
				for lvl, pair := range [][2]*Queued{{ev.q1, ref.q1}, {ev.q2, ref.q2}} {
					if d := queuedDiff(pair[0], pair[1]); d != "" {
						t.Fatalf("geometry %d seed %d op %d (%+v): level %d diverged from the per-cycle reference: %s",
							gi, seed, i, op, lvl, d)
					}
					if err := pair[0].CheckInvariants(); err != nil {
						t.Fatalf("geometry %d seed %d op %d: %v", gi, seed, i, err)
					}
					for j := 0; j < pair[0].pq.len(); j++ {
						if pair[0].pq.at(j).enq > pair[0].now {
							seen.futurePQ++
						}
					}
				}
			}
			ev.l1.(*Queued).Drain()
			ev.q2.Drain()
			ref.l1.(refQueued).Drain()
			ref.l2.(refQueued).Drain()
			for lvl, pair := range [][2]*Queued{{ev.q1, ref.q1}, {ev.q2, ref.q2}} {
				if d := queuedDiff(pair[0], pair[1]); d != "" {
					t.Fatalf("geometry %d seed %d: level %d diverged after Drain: %s", gi, seed, lvl, d)
				}
			}
			if !reflect.DeepEqual(ev.dram.log, ref.dram.log) {
				t.Fatalf("geometry %d seed %d: memory traffic differs (%d vs %d calls)",
					gi, seed, len(ev.dram.log), len(ref.dram.log))
			}
			for _, q := range []*Queued{ev.q1, ev.q2} {
				st := q.Stats()
				seen.rqFull += st.RQFull
				seen.wqFull += st.WQFull
				seen.mshrFull += st.MSHRFull
				seen.vapqStaged += q.vapq.pops
			}
		}
	}
	t.Logf("coverage: %+v", seen)
	if seen.rqFull == 0 || seen.wqFull == 0 || seen.mshrFull == 0 || seen.vapqStaged == 0 || seen.futurePQ == 0 {
		t.Errorf("streams missed a path the test must cover: %+v", seen)
	}
}
