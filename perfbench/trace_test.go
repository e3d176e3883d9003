package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.base.Add(time.Duration(ms) * time.Millisecond) }
	tr.Record("parent", 0, at(0), at(100))
	tr.Record("child", 1, at(10), at(30))
	tr.Record("child", 1, at(20), at(50))  // overlaps the first child
	tr.Record("child", 1, at(90), at(120)) // runs past the parent's end
	rows := map[string]layerRow{}
	for _, r := range tr.Layers() {
		rows[r.Name] = r
	}
	if got := rows["parent"].SelfNs; got != int64(50*time.Millisecond) {
		t.Fatalf("parent self = %v, want 50ms", time.Duration(got))
	}
	if r := rows["child"]; r.Count != 3 || r.TotalNs != int64(80*time.Millisecond) {
		t.Fatalf("child row = %+v", r)
	}
}

func TestNilTracerTimes(t *testing.T) {
	var tr *Tracer
	if d := tr.Time("x", 0, func() { time.Sleep(time.Millisecond) }); d < time.Millisecond {
		t.Fatalf("nil tracer measured %v", d)
	}
	if tr.Layers() != nil {
		t.Fatal("nil tracer has layers")
	}
}
