package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"stateless/internal/obs"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the process started; Parent is 0 for an operation's
// root span; Run groups the spans of one set-up or operation.
type span struct {
	Type   string `json:"type"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// snapshotLine is the registry of one traced operation at its end.
type snapshotLine struct {
	Type    string       `json:"type"`
	Run     int          `json:"run"`
	Metrics obs.Snapshot `json:"metrics"`
}

// tracer keeps a run's spans and registry snapshots in memory until the
// run ends. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	snaps []snapshotLine
}

// begin opens a root span and returns its id.
func (t *tracer) begin(name string, run int, start time.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Type: "span", ID: len(t.spans) + 1, Run: run, Name: name, Start: int64(start.Sub(t.t0))})
	return len(t.spans)
}

// end closes the root span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// add records a finished child span of parent.
func (t *tracer) add(name string, run, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Type: "span", ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

func (t *tracer) snapshot(run int, s obs.Snapshot) {
	t.snaps = append(t.snaps, snapshotLine{Type: "snapshot", Run: run, Metrics: s})
}

// write stores every span, then every snapshot, one JSON object a line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	for _, s := range t.snaps {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
