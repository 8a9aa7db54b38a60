package cache

import (
	"fmt"
	"math"

	"atcsim/internal/mem"
)

// Queued wraps a Cache with ChampSim-style bounded request deques (RQ, WQ,
// PQ, VAPQ) advanced cycle by cycle. The engine only steps the cycles at
// which a queue can change state (see nextEvent) and jumps over the idle
// cycles between them. It implements Lower, so a queued hierarchy is built
// by interposing one Queued per level: the inner cache's lower pointer is
// the next level's Queued wrapper, which routes demand misses into the
// lower RQ and evicted dirty lines into the lower WQ.
//
// Semantics relative to the analytic engine:
//
//   - Reads occupy an RQ slot from enqueue until their fill completes, so a
//     burst of overlapping misses genuinely fills the queue (rq_full).
//   - Writebacks land in the WQ and are absorbed at MaxWrite per cycle; a
//     read that matches a pending WQ entry is forwarded without touching
//     the array (wq_forward).
//   - Prefetches issued by the inner cache (ATP, TEMPO, attached
//     prefetchers) are diverted through the pfSink hook into the PQ —
//     translation-triggered distant prefetches stage through the VAPQ
//     first — and merge with pending entries for the same line
//     (pq_merged). Leftover read bandwidth drains the PQ, so demand always
//     wins the port.
//   - A read-queue head that needs a miss is blocked head-of-line while
//     every MSHR is occupied (mshr_full); translation reads travel through
//     the walker's private buffers and bypass the gate, matching the inner
//     cache's MSHR model.
//
// When every queue is drained between operations the inner cache observes
// the same operations in the same order as the analytic engine, only at
// shifted cycles — the lockstep differential harness in internal/validate
// holds the two engines to identical state under exactly that schedule.
//
// Not safe for concurrent use, like the Cache it wraps.
type Queued struct {
	c    *Cache
	qcfg QueueConfig

	rq   ring
	wq   ring
	pq   ring
	vapq ring

	// pending counts the RQ entries not serviced yet. processRQ serves in
	// FIFO order, so these entries are always the RQ's tail and the
	// serviced ones its prefix.
	pending int

	now int64
	seq uint64
	qst QueueStats
}

// NewQueued wraps c with bounded request queues and installs the prefetch
// sink that diverts the inner cache's Prefetch calls into the PQ/VAPQ.
func NewQueued(c *Cache, qcfg QueueConfig) *Queued {
	qcfg = qcfg.withDefaults()
	q := &Queued{
		c:    c,
		qcfg: qcfg,
		rq:   newRing(qcfg.RQ),
		wq:   newRing(qcfg.WQ),
		pq:   newRing(qcfg.PQ),
		vapq: newRing(qcfg.VAPQ),
	}
	c.pfSink = q.enqueuePrefetch
	return q
}

// Inner returns the wrapped cache.
func (q *Queued) Inner() *Cache { return q.c }

// Name returns the wrapped cache's name.
func (q *Queued) Name() string { return q.c.Name() }

// Level returns the wrapped cache's hierarchy level.
func (q *Queued) Level() mem.Level { return q.c.Level() }

// Now returns the engine's current cycle.
func (q *Queued) Now() int64 { return q.now }

// Stats snapshots the queue counters, deriving the conservation totals from
// the rings.
func (q *Queued) Stats() QueueStats {
	st := q.qst
	st.Enqueued = q.rq.pushes + q.wq.pushes + q.pq.pushes + q.vapq.pushes
	st.Drained = q.rq.pops + q.wq.pops + q.pq.pops + q.vapq.pops
	return st
}

// ResetStats zeroes the queue counters (end of warmup). Resident entries
// are not touched; Drain first for a clean epoch boundary.
func (q *Queued) ResetStats() { q.qst = QueueStats{} }

// busy reports whether any queue still holds work to process. Done RQ
// entries waiting only for their fill cycle to pass do not count — they
// retire on their own as time advances.
func (q *Queued) busy() bool {
	return q.pending > 0 || !q.wq.empty() || !q.pq.empty() || !q.vapq.empty()
}

// nextEvent returns the earliest cycle after now at which step can change
// state, or math.MaxInt64 when every queue is empty. Each queue is FIFO and
// only its head (for the RQ: its oldest serviced entry and its first
// pending one) can move, so the candidates are:
//
//   - the RQ head's fill becomes ready (retire frees its slot);
//   - the first pending RQ entry becomes eligible;
//   - the WQ head becomes eligible;
//   - the VAPQ head's staging delay elapses, unless the PQ is full — a
//     full PQ only drains at a PQ event;
//   - the PQ head becomes eligible (prefetchers may date it in the future).
//
// Every cycle strictly between now and the result is a no-op step apart from
// the clock, which is what lets the wait loops jump over them. An eligible
// RQ entry blocked on the MSHRs is an event on every cycle it stays
// blocked: each such cycle prunes the MSHR list, counts mshr_full and may
// drop PQ prefetches.
func (q *Queued) nextEvent() int64 {
	next := int64(math.MaxInt64)
	if q.rq.len() > q.pending {
		next = q.rq.at(0).res.Ready
	}
	if q.pending > 0 {
		next = min(next, q.rq.at(q.rq.len()-q.pending).enq+1)
	}
	if !q.wq.empty() {
		next = min(next, q.wq.at(0).enq+1)
	}
	if !q.vapq.empty() && !q.pq.full() {
		next = min(next, q.vapq.at(0).enq+q.qcfg.VAPQLatency)
	}
	if !q.pq.empty() {
		next = min(next, q.pq.at(0).enq+1)
	}
	return max(next, q.now+1)
}

// advance jumps to the engine's next event and steps it, returning the
// cycles that passed. Callers count per-stalled-cycle statistics with the
// return value, so they match a loop that stepped every cycle. The queues
// must hold an event (see nextEvent).
func (q *Queued) advance() uint64 {
	from := q.now
	q.now = q.nextEvent() - 1
	q.step()
	return uint64(q.now - from)
}

// catchUp advances the engine to cycle, stepping only the event cycles on
// the way and jumping over the idle ones.
func (q *Queued) catchUp(cycle int64) {
	for q.now < cycle {
		if !q.busy() {
			q.now = cycle
			q.retire()
			return
		}
		next := q.nextEvent()
		if next > cycle {
			q.now = cycle
			return
		}
		q.now = next - 1
		q.step()
	}
}

// Drain advances until every queue is empty, force-retiring in-flight RQ
// slots at the end. Used at epoch boundaries (warmup reset, end of run) and
// by the lockstep differential harness between operations.
func (q *Queued) Drain() {
	for q.busy() {
		q.advance()
	}
	for !q.rq.empty() {
		if e := q.rq.at(0); e.res.Ready > q.now {
			q.now = e.res.Ready
		}
		q.retire()
	}
}

// step advances one cycle: retire completed reads, drain writes, stage
// translation prefetches, process reads, then spend leftover read bandwidth
// on prefetches.
func (q *Queued) step() {
	q.now++
	q.retire()
	q.drainWQ()
	q.stageVAPQ()
	budget := q.processRQ()
	q.processPQ(budget)
}

// retire releases RQ slots whose fills have completed, in FIFO order.
func (q *Queued) retire() {
	for !q.rq.empty() {
		e := q.rq.at(0)
		if !e.done || e.res.Ready > q.now {
			return
		}
		q.rq.pop()
	}
}

// drainWQ absorbs up to MaxWrite pending writebacks into the inner cache.
func (q *Queued) drainWQ() {
	for i := 0; i < q.qcfg.MaxWrite && !q.wq.empty(); i++ {
		e := q.wq.at(0)
		if e.enq >= q.now {
			return
		}
		q.c.Access(&e.req, q.now)
		q.wq.pop()
	}
}

// stageVAPQ moves translation-triggered prefetches whose staging latency
// has elapsed from the VAPQ into the PQ. A full PQ blocks the head.
func (q *Queued) stageVAPQ() {
	for !q.vapq.empty() {
		e := q.vapq.at(0)
		if e.enq+q.qcfg.VAPQLatency > q.now {
			return
		}
		slot := q.pq.push()
		if slot == nil {
			return
		}
		q.seq++
		*slot = queueEntry{req: e.req, line: e.line, distant: e.distant, enq: q.now, seq: q.seq}
		q.vapq.pop()
	}
}

// processRQ services up to MaxRead eligible read-queue entries in FIFO
// order and returns the unused read budget. A head that needs a miss while
// the MSHRs are saturated blocks the whole queue for the cycle.
func (q *Queued) processRQ() int {
	budget := q.qcfg.MaxRead
	for i := q.rq.len() - q.pending; i < q.rq.len() && budget > 0; i++ {
		e := q.rq.at(i)
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

// processPQ spends leftover read bandwidth issuing queued prefetches.
func (q *Queued) processPQ(budget int) {
	for ; budget > 0 && !q.pq.empty(); budget-- {
		e := q.pq.at(0)
		if e.enq >= q.now {
			return
		}
		q.c.prefetchNow(e.line, q.now, e.distant)
		q.pq.pop()
	}
}

// enqueuePrefetch is the inner cache's pfSink: divert a Prefetch call into
// the PQ (or, for distant translation-triggered prefetches, the VAPQ),
// merging with a pending entry for the same line and dropping on overflow.
func (q *Queued) enqueuePrefetch(line mem.Addr, cycle int64, distant bool) int64 {
	if q.pq.find(line) || q.vapq.find(line) {
		q.qst.PQMerged++
		return cycle
	}
	target := &q.pq
	if distant {
		target = &q.vapq
	}
	slot := target.push()
	if slot == nil {
		if distant {
			q.qst.VAPQFull++
		} else {
			q.qst.PQFull++
		}
		return cycle
	}
	q.seq++
	*slot = queueEntry{
		req:     mem.Request{Addr: line << mem.LineBits, Kind: mem.Prefetch},
		line:    line,
		distant: distant,
		enq:     cycle,
		seq:     q.seq,
	}
	return cycle
}

// Access implements Lower: reads are pushed through the RQ (stalling on a
// full queue), writebacks through the WQ. The call advances the engine until
// the request's outcome is known, so the caller keeps the analytic engine's
// synchronous interface while occupancy, bandwidth and backpressure come
// from the queues.
func (q *Queued) Access(req *mem.Request, cycle int64) Result {
	q.catchUp(cycle)

	if req.Kind == mem.Writeback {
		for q.wq.full() {
			q.qst.WQFull += q.advance()
		}
		q.seq++
		slot := q.wq.push()
		*slot = queueEntry{req: *req, line: mem.LineAddr(req.Addr), enq: q.now, seq: q.seq}
		return Result{Ready: q.now + q.c.cfg.Latency, Src: q.c.cfg.Level}
	}

	line := mem.LineAddr(req.Addr)
	if q.wq.find(line) {
		// Forward the youngest store's data without touching the array.
		q.qst.WQForward++
		return Result{Ready: q.now + q.c.cfg.Latency, Src: q.c.cfg.Level}
	}
	if q.rq.find(line) {
		// A read for the same line is already in flight; the inner cache's
		// fill-timestamp merge path coalesces them when this entry issues.
		q.qst.RQMerged++
	}
	for q.rq.full() {
		q.qst.RQFull += q.advance()
	}
	q.seq++
	e := q.rq.push()
	*e = queueEntry{req: *req, line: line, enq: q.now, seq: q.seq}
	q.pending++
	// The slot pointer stays valid while stepping: step() only pops from
	// the RQ and a pop never moves entries. This wait has no idle cycles to
	// jump over. Every earlier read was serviced before its own Access
	// returned, so the new entry is the first pending one and becomes
	// eligible on the next cycle. Each cycle it then stays blocked on the
	// MSHRs is an event too. Plain steps are therefore exact, and they skip
	// the nextEvent cost on the hit path.
	for !e.done {
		q.step()
	}
	return e.res
}

// CheckInvariants audits the queue structures: bounded occupancy, head
// indices in range, push/pop conservation (no entry lost or duplicated),
// FIFO sequence order, entries not from the future, serviced RQ entries
// forming a prefix counted by the pending count, and the inner cache's own
// invariants.
func (q *Queued) CheckInvariants() error {
	name := q.c.Name()
	rings := []struct {
		r     *ring
		label string
	}{
		{&q.rq, "rq"}, {&q.wq, "wq"}, {&q.pq, "pq"}, {&q.vapq, "vapq"},
	}
	for _, it := range rings {
		if err := it.r.check(name + " " + it.label); err != nil {
			return err
		}
		var prev uint64
		for i := 0; i < it.r.len(); i++ {
			e := it.r.at(i)
			if i > 0 && e.seq <= prev {
				return fmt.Errorf("%s %s: FIFO order broken at index %d (seq %d after %d)",
					name, it.label, i, e.seq, prev)
			}
			prev = e.seq
			if e.seq > q.seq {
				return fmt.Errorf("%s %s: entry seq %d beyond issued %d", name, it.label, e.seq, q.seq)
			}
			// RQ/WQ entries are never enqueued in the future; PQ/VAPQ
			// entries may carry a prefetcher-issued delay.
			if (it.r == &q.rq || it.r == &q.wq) && e.enq > q.now {
				return fmt.Errorf("%s %s: entry enqueued at %d beyond now %d", name, it.label, e.enq, q.now)
			}
		}
	}
	serviced := q.rq.len() - q.pending
	if q.pending < 0 || serviced < 0 {
		return fmt.Errorf("%s rq: pending count %d outside [0,%d]", name, q.pending, q.rq.len())
	}
	for i := 0; i < q.rq.len(); i++ {
		if done := q.rq.at(i).done; done != (i < serviced) {
			return fmt.Errorf("%s rq: entry %d done=%v, but %d of %d entries pending (serviced entries must form a prefix)",
				name, i, done, q.pending, q.rq.len())
		}
	}
	st := q.Stats()
	resident := uint64(q.rq.len() + q.wq.len() + q.pq.len() + q.vapq.len())
	if st.Enqueued-st.Drained != resident {
		return fmt.Errorf("%s: queue conservation broken: %d enqueued, %d drained, %d resident",
			name, st.Enqueued, st.Drained, resident)
	}
	return q.c.CheckInvariants()
}
