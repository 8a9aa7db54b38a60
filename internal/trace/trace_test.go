package trace

import (
	"bytes"
	"testing"

	"atcsim/internal/mem"
)

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder("x", 0); err == nil {
		t.Error("zero limit accepted")
	}
	if _, err := NewBuilder("x", -5); err == nil {
		t.Error("negative limit accepted")
	}
}

func TestBuilderEmitsAndCaps(t *testing.T) {
	b := MustNewBuilder("t", 5)
	b.Load(1, 0x1000)
	b.Store(2, 0x2000)
	b.Branch(3, true)
	b.ALU(4, 10) // only 2 fit
	if !b.Full() || b.Len() != 5 {
		t.Fatalf("len = %d full = %v", b.Len(), b.Full())
	}
	// Emissions after full are dropped silently.
	b.Load(1, 0x3000)
	if b.Len() != 5 {
		t.Error("emitted past the limit")
	}
	tr := b.Build()
	if tr.Name != "t" || len(tr.Insts) != 5 {
		t.Fatalf("trace = %s/%d", tr.Name, len(tr.Insts))
	}
	if tr.Insts[0].Op != OpLoad || tr.Insts[0].Addr != 0x1000 {
		t.Error("first inst wrong")
	}
	if tr.Insts[2].Op != OpBranch || !tr.Insts[2].Taken {
		t.Error("branch inst wrong")
	}
}

func TestDistinctSitesDistinctIPs(t *testing.T) {
	b := MustNewBuilder("t", 10)
	b.Load(1, 0x1000)
	b.Load(2, 0x1000)
	b.Load(1, 0x2000)
	tr := b.Build()
	if tr.Insts[0].IP == tr.Insts[1].IP {
		t.Error("different sites share an IP")
	}
	if tr.Insts[0].IP != tr.Insts[2].IP {
		t.Error("same site has different IPs")
	}
}

func TestTraceStats(t *testing.T) {
	b := MustNewBuilder("t", 10)
	b.Load(1, 0)                  // page 0
	b.Load(1, mem.PageSize)       // page 1
	b.Store(2, mem.PageSize+1024) // page 1 again
	b.Branch(3, false)
	b.ALU(4, 2)
	st := b.Build().Stats()
	if st.Total != 6 || st.Loads != 2 || st.Stores != 1 || st.Branches != 1 || st.ALU != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.Pages != 2 {
		t.Errorf("pages = %d, want 2", st.Pages)
	}
}

func TestOpClassString(t *testing.T) {
	names := map[OpClass]string{OpALU: "alu", OpLoad: "load", OpStore: "store", OpBranch: "branch"}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("OpClass(%d) = %q", op, op.String())
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	b := MustNewBuilder("roundtrip", 100)
	b.Load(1, 0x1000)
	b.LoadDep(2, 0x2000)
	b.Store(3, 0x3000)
	b.Branch(4, true)
	b.Branch(5, false)
	b.ALU(6, 3)
	orig := b.Build()

	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || len(got.Insts) != len(orig.Insts) {
		t.Fatalf("header mismatch: %q/%d", got.Name, len(got.Insts))
	}
	for i := range orig.Insts {
		if got.Insts[i] != orig.Insts[i] {
			t.Fatalf("inst %d: %+v != %+v", i, got.Insts[i], orig.Insts[i])
		}
	}
}

func TestTraceReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Valid header, truncated records.
	b := MustNewBuilder("x", 10)
	b.ALU(1, 5)
	var buf bytes.Buffer
	b.Build().Write(&buf)
	raw := buf.Bytes()
	if _, err := Read(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Error("truncated trace accepted")
	}
}

// TestBuilderBlockAccumulation checks that the chunked builder is invisible
// to consumers: Len/Full track the budget exactly and Build assembles the
// emitted sequence contiguously regardless of where block boundaries fall.
func TestBuilderBlockAccumulation(t *testing.T) {
	limit := 2*BuilderBlock + 77
	b := MustNewBuilder("blocks", limit)
	for i := 0; !b.Full(); i++ {
		b.Load(i%13, mem.Addr(i)*64)
		if want := i + 1; b.Len() != want && !b.Full() {
			t.Fatalf("after %d emits Len=%d", want, b.Len())
		}
	}
	if b.Len() != limit {
		t.Fatalf("Len=%d at Full, want %d", b.Len(), limit)
	}
	b.ALU(0, 5) // past the budget: dropped
	tr := b.Build()
	if len(tr.Insts) != limit {
		t.Fatalf("built %d insts, want %d", len(tr.Insts), limit)
	}
	for i := range tr.Insts {
		if tr.Insts[i].Op != OpLoad || tr.Insts[i].Addr != mem.Addr(i)*64 {
			t.Fatalf("inst %d corrupted across block boundary: %+v", i, tr.Insts[i])
		}
	}
}
