package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracer keeps the traced run's spans in memory and writes them out when
// the run ends. A nil *Tracer records nothing, so the untraced run
// executes the same code with every tracing call returning at once.
type Tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

// span is one timed call at a layer boundary. Parent is the id of the
// span that caused it, 0 for a root; ids start at 1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *Tracer { return &Tracer{base: time.Now()} }

// Begin opens a span under parent and returns its id (0 when nil).
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// End closes the span Begin returned.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Record adds a span with explicit bounds, such as a served window from
// the instant it was due to the instant its result arrived.
func (t *Tracer) Record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()})
}

// Time runs fn inside a span and returns how long it took. The duration
// is measured whether or not the tracer is nil.
func (t *Tracer) Time(name string, parent int, fn func()) time.Duration {
	id := t.Begin(name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.End(id)
	return d
}

// layerRow aggregates every span of one name.
type layerRow struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// Layers aggregates the closed spans by name. A span's self time is its
// duration minus the part of its interval its child spans cover.
func (t *Tracer) Layers() []layerRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	rows := make(map[string]*layerRow)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		var iv [][2]int64
		for _, c := range children[s.ID] {
			cs := t.spans[c-1]
			iv = append(iv, [2]int64{cs.Start, cs.End})
		}
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalNs += s.End - s.Start
		r.SelfNs += s.End - s.Start - covered(s.Start, s.End, iv)
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// WriteTable prints the per-layer table: span count, total and self time.
func (t *Tracer) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-32s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_us/call")
	for _, r := range t.Layers() {
		fmt.Fprintf(w, "%-32s %8d %12.3f %12.3f %12.3f\n", r.Name, r.Count,
			float64(r.TotalNs)/1e6, float64(r.SelfNs)/1e6, float64(r.SelfNs)/1e3/float64(r.Count))
	}
}

// WriteFile writes every span as one JSON object per line.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
