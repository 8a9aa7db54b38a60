package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one recorded call into a layer of the simulator.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Op     int    `json:"op"`     // operation index, -1 during set-up and probes
}

// spans keeps the traced run's spans in memory until the run ends.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	list []span
	on   bool
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span and returns its index, or -1 when recording is off.
// A nil recorder records nothing.
func (s *spans) begin(name string, op, parent int) int {
	if s == nil {
		return -1
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.on {
		return -1
	}
	s.list = append(s.list, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(s.list) - 1
}

// end closes the span begin returned.
func (s *spans) end(id int) {
	if s == nil || id < 0 {
		return
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	s.list[id].End = now
	s.mu.Unlock()
}

// setOn starts or stops recording.
func (s *spans) setOn(on bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.on = on
	s.mu.Unlock()
}

// durations returns the durations in milliseconds of every closed span with
// the given name.
func (s *spans) durations(name string) []float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, sp := range s.list {
		if sp.Name == name {
			out = append(out, float64(sp.End-sp.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON in path.
func (s *spans) write(path string) error {
	s.mu.Lock()
	b, err := json.Marshal(s.list)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
