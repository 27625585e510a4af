package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call the harness made into a layer of the program: which
// layer, when, and which harness span caused it. Spans nest
// bench.run → setup|measure → phase → layer call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory and writes them out when the run ends.
// A nil tracer records nothing, so an untraced run pays one nil check per
// call site. on gates recording inside a traced run: the serving window
// alternates traced and untraced slices to measure what recording costs.
type tracer struct {
	run   string
	t0    time.Time
	on    atomic.Bool
	phase atomic.Int64 // span that spans started off the harness's goroutines hang under

	mu    sync.Mutex
	spans []span
}

func newTracer(run string, t0 time.Time) *tracer {
	t := &tracer{run: run, t0: t0}
	t.on.Store(true)
	return t
}

// start opens a span and returns its id; 0 (no span) when not recording.
func (t *tracer) start(parent int, layer, name string) int {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Layer: layer, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by start; id 0 is a no-op.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// setPhase names the span that callbacks running on the program's own
// goroutines (replica handlers) attach to.
func (t *tracer) setPhase(id int) {
	if t != nil {
		t.phase.Store(int64(id))
	}
}

func (t *tracer) currentPhase() int {
	if t == nil {
		return 0
	}
	return int(t.phase.Load())
}

// selfTimes sums, per layer, each span's duration minus the part of it its
// children cover. Children that overlap each other (concurrent requests)
// can cover more than the parent; self time is floored at zero then.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.End > s.Start {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if s.End <= s.Start {
			continue
		}
		out[s.Layer] += time.Duration(max(s.End-s.Start-child[s.ID], 0))
	}
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printSelfTimes prints the per-layer self-time table of a traced run.
func printSelfTimes(w io.Writer, self map[string]time.Duration) {
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintln(w, "self time per layer (span minus children):")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %9.3f s\n", l, self[l].Seconds())
	}
}
