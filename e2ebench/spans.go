package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, kept in memory until exit.
type span struct {
	ID, Parent int // Parent 0 = root
	Name       string
	Start, End time.Duration // since the tracer's epoch
}

// tracer records spans around the benchmark's calls into the program.
// A nil *tracer records nothing, so the untraced mode pays one nil check
// per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span under parent and returns its id; end closes it.
// Spans may be opened from several goroutines.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-measured interval.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch),
	})
}

// chromeEvent is one Chrome trace_event "complete" event; the file opens
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace_event JSON. Spans whose
// parent chain reaches a root share that root's track (tid), except job
// spans of a concurrent campaign, which get one track per worker lane so
// overlapping jobs do not draw on top of each other.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	events := make([]chromeEvent, 0, len(t.spans))
	// laneEnd[tid] is when the last span placed on that lane ended.
	laneEnd := map[int]time.Duration{}
	tidOf := make([]int, len(t.spans)+1)
	// In start order, so a parent is placed before its children and lanes
	// fill left to right.
	order := append([]span(nil), t.spans...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Start < order[j].Start })
	for _, s := range order {
		if s.End < 0 {
			continue
		}
		tid := 1
		if s.Parent != 0 {
			tid = tidOf[s.Parent]
			if strings.HasPrefix(s.Name, "job:") {
				// First lane at or above 100 that is free at s.Start.
				for tid = 100; laneEnd[tid] > s.Start; tid++ {
				}
				laneEnd[tid] = s.End
			}
		}
		tidOf[s.ID] = tid
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: tid,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	if err := json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	}); err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
