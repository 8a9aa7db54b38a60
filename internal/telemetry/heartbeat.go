package telemetry

import (
	"encoding/json"
	"io"

	"atcsim/internal/mem"
	"atcsim/internal/metrics"
)

// NumStallKinds is the number of ROB-head stall classes mirrored from
// internal/cpu (which imports this package, so the constant lives here; the
// system layer asserts the two stay in sync).
const NumStallKinds = 4

// Snapshot is a cumulative view of the machine's counters at one point of
// the measured phase. The heartbeat engine differences consecutive snapshots
// to produce interval rows, so every field must be monotonic.
type Snapshot struct {
	Cycle        int64 // max core cycle since measurement start
	Instructions uint64

	L1DMisses [mem.NumClasses]uint64
	L2Misses  [mem.NumClasses]uint64
	LLCMisses [mem.NumClasses]uint64

	STLBAccesses uint64
	STLBMisses   uint64

	// LeafReads / LeafDRAM track leaf-PTE service (translation hit rate).
	LeafReads uint64
	LeafDRAM  uint64

	Stalls [NumStallKinds]uint64

	DRAMReads     uint64
	DRAMRowHits   uint64
	DRAMRowClosed uint64
	DRAMRowMisses uint64
}

// Row is one derived heartbeat interval. Counts are interval deltas; rates
// and MPKIs are derived from them.
type Row struct {
	Index        int     `json:"interval"`
	EndCycle     int64   `json:"end_cycle"`
	Cycles       int64   `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	IPC          float64 `json:"ipc"`

	L1DMPKI       float64 `json:"l1d_mpki"`
	L2MPKI        float64 `json:"l2_mpki"`
	LLCMPKI       float64 `json:"llc_mpki"`
	LLCReplayMPKI float64 `json:"llc_replay_mpki"`
	LLCLeafMPKI   float64 `json:"llc_leaf_mpki"`

	STLBAccesses uint64  `json:"stlb_accesses"`
	STLBMissRate float64 `json:"stlb_miss_rate"`
	STLBMPKI     float64 `json:"stlb_mpki"`
	LeafPTEReads uint64  `json:"leaf_pte_reads"`
	LeafPTEDRAM  uint64  `json:"leaf_pte_dram"`
	TransHitRate float64 `json:"trans_hit_rate"`

	StallTranslation uint64 `json:"stall_translation"`
	StallReplay      uint64 `json:"stall_replay"`
	StallNonReplay   uint64 `json:"stall_nonreplay"`
	StallOther       uint64 `json:"stall_other"`

	DRAMReads      uint64  `json:"dram_reads"`
	DRAMRowHits    uint64  `json:"dram_row_hits"`
	DRAMRowHitRate float64 `json:"dram_row_hit_rate"`
}

func mpki(misses, insts uint64) float64 {
	if insts == 0 {
		return 0
	}
	return 1000 * float64(misses) / float64(insts)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// DeltaRow derives the interval row between prev and cur (cur - prev).
func DeltaRow(prev, cur Snapshot, index int) Row {
	insts := cur.Instructions - prev.Instructions
	cycles := cur.Cycle - prev.Cycle
	demand := func(m [mem.NumClasses]uint64, p [mem.NumClasses]uint64) uint64 {
		return (m[mem.ClassNonReplay] - p[mem.ClassNonReplay]) +
			(m[mem.ClassReplay] - p[mem.ClassReplay])
	}
	stlbAcc := cur.STLBAccesses - prev.STLBAccesses
	stlbMiss := cur.STLBMisses - prev.STLBMisses
	leaf := cur.LeafReads - prev.LeafReads
	leafDRAM := cur.LeafDRAM - prev.LeafDRAM
	rowHits := cur.DRAMRowHits - prev.DRAMRowHits
	rowOps := rowHits +
		(cur.DRAMRowClosed - prev.DRAMRowClosed) +
		(cur.DRAMRowMisses - prev.DRAMRowMisses)

	r := Row{
		Index:        index,
		EndCycle:     cur.Cycle,
		Cycles:       cycles,
		Instructions: insts,

		L1DMPKI:       mpki(demand(cur.L1DMisses, prev.L1DMisses), insts),
		L2MPKI:        mpki(demand(cur.L2Misses, prev.L2Misses), insts),
		LLCMPKI:       mpki(demand(cur.LLCMisses, prev.LLCMisses), insts),
		LLCReplayMPKI: mpki(cur.LLCMisses[mem.ClassReplay]-prev.LLCMisses[mem.ClassReplay], insts),
		LLCLeafMPKI:   mpki(cur.LLCMisses[mem.ClassTransLeaf]-prev.LLCMisses[mem.ClassTransLeaf], insts),

		STLBAccesses: stlbAcc,
		STLBMissRate: ratio(stlbMiss, stlbAcc),
		STLBMPKI:     mpki(stlbMiss, insts),
		LeafPTEReads: leaf,
		LeafPTEDRAM:  leafDRAM,
		TransHitRate: ratio(leaf-leafDRAM, leaf),

		StallTranslation: cur.Stalls[0] - prev.Stalls[0],
		StallReplay:      cur.Stalls[1] - prev.Stalls[1],
		StallNonReplay:   cur.Stalls[2] - prev.Stalls[2],
		StallOther:       cur.Stalls[3] - prev.Stalls[3],

		DRAMReads:      cur.DRAMReads - prev.DRAMReads,
		DRAMRowHits:    rowHits,
		DRAMRowHitRate: ratio(rowHits, rowOps),
	}
	if cycles > 0 {
		r.IPC = float64(insts) / float64(cycles)
	}
	return r
}

// Heartbeat turns cumulative snapshots taken every Every() instructions into
// interval rows, streaming them to an optional writer as JSON Lines and
// retaining them for programmatic access. Built with a registry, it also
// sets the live sim_* gauges from every snapshot it ingests, so a /metrics
// scrape mid-run sees the counters as of the last tick. Like the tracer it
// is a pure observer.
type Heartbeat struct {
	every  int
	w      io.Writer
	gauges *simGauges
	prev   Snapshot
	rows   []Row
	err    error
}

// NewHeartbeat creates a heartbeat engine snapshotting every `every`
// instructions (non-positive falls back to 100_000). w may be nil to only
// retain rows in memory; reg may be nil for no gauges.
func NewHeartbeat(w io.Writer, every int, reg *metrics.Registry) *Heartbeat {
	if every <= 0 {
		every = 100_000
	}
	h := &Heartbeat{every: every, w: w}
	if reg != nil {
		h.gauges = newSimGauges(reg)
	}
	return h
}

// Every returns the snapshot period in instructions.
func (h *Heartbeat) Every() int {
	if h == nil {
		return 0
	}
	return h.every
}

// Begin records the measurement-start baseline.
func (h *Heartbeat) Begin(s Snapshot) {
	if h == nil {
		return
	}
	h.prev = s
}

// Tick ingests the next cumulative snapshot: it derives, streams and
// retains the interval row and sets the gauges. Ticks before Begin
// difference against the zero snapshot.
func (h *Heartbeat) Tick(s Snapshot) Row {
	if h == nil {
		return Row{}
	}
	row := DeltaRow(h.prev, s, len(h.rows))
	h.prev = s
	h.rows = append(h.rows, row)
	if h.w != nil && h.err == nil {
		b, err := json.Marshal(row)
		if err == nil {
			_, err = h.w.Write(append(b, '\n'))
		}
		h.err = err
	}
	if h.gauges != nil {
		h.gauges.set(s)
	}
	return row
}

// Rows returns every interval row produced so far.
func (h *Heartbeat) Rows() []Row {
	if h == nil {
		return nil
	}
	return h.rows
}

// Err returns the first stream-write error, if any.
func (h *Heartbeat) Err() error {
	if h == nil {
		return nil
	}
	return h.err
}
