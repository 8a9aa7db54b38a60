package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestHealthNilSafe(t *testing.T) {
	var h *Health
	if s := h.Snapshot(); s != (HealthSnapshot{}) {
		t.Errorf("nil Snapshot = %+v", s)
	}
}

func TestHealthConcurrentCounting(t *testing.T) {
	h := new(Health)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h.Runs.Add(1)
				h.Retries.Add(2)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Runs != 800 || s.Retries != 1600 {
		t.Errorf("Snapshot = %+v", s)
	}
}

func TestHealthSnapshotJSON(t *testing.T) {
	h := new(Health)
	h.Failures.Add(1)
	h.Panics.Add(1)
	h.Quarantined.Add(3)
	raw, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back HealthSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Failures != 1 || back.Panics != 1 || back.Quarantined != 3 {
		t.Errorf("round trip = %+v", back)
	}
}
