package main

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/dvs"
)

// fakeClock advances only when the generator sleeps or the test moves it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func tinyRecording(t *testing.T) *recording {
	t.Helper()
	s := &dvs.Stream{W: sensorW, H: sensorH, Duration: 30, Events: []dvs.Event{
		{X: 1, Y: 1, P: 1, T: 1}, {X: 2, Y: 2, P: -1, T: 5},
		{X: 3, Y: 3, P: 1, T: 12}, {X: 4, Y: 4, P: 1, T: 25},
	}}
	r, err := newRecording(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWindowClosesAtFirstEventPastItsEnd(t *testing.T) {
	r := tinyRecording(t)
	want := []float64{12, 25, 30} // window 2 has no later event: the recording's end
	if len(r.closeMS) != len(want) {
		t.Fatalf("closeMS = %v, want %v", r.closeMS, want)
	}
	for k := range want {
		if r.closeMS[k] != want[k] {
			t.Fatalf("closeMS = %v, want %v", r.closeMS, want)
		}
	}
}

// The generator runs late: the event closing window 0 is due at 12 ms but
// only leaves at 20 ms, and the result arrives at 23 ms. The latency
// counts from the due instant (11 ms), not from the send (3 ms), nor from
// the window's start (23 ms) or end (13 ms); the 8 ms lateness is
// reported as generator lag.
func TestLatencyFromDueInstantWithLag(t *testing.T) {
	r := tinyRecording(t)
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	p := replay{rec: r, start: t0, speed: 1}
	var lags []float64
	pr := &pacedReader{p: p, clk: clk, onLag: func(ms float64) { lags = append(lags, ms) }}
	var sent bytes.Buffer
	buf := make([]byte, 1<<10)
	read := func() {
		n, err := pr.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		sent.Write(buf[:n])
	}
	read() // header
	read() // events due at 1 ms
	read() // event due at 5 ms
	clk.now = t0.Add(20 * time.Millisecond)
	read() // the event due at 12 ms leaves 8 ms late
	if len(lags) != 3 || lags[2] != 8 {
		t.Fatalf("lags = %v, want the third to be 8 ms", lags)
	}
	lat, ok := p.latency(0, t0.Add(23*time.Millisecond))
	if !ok || lat != 11 {
		t.Fatalf("window 0 latency = %v ms, want 11", lat)
	}
	// The rest of the recording, then EOF at the recording's end.
	read()
	if n, err := pr.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("Read at end = %d, %v; want 0, EOF", n, err)
	}
	if got := clk.now.Sub(t0); got != 30*time.Millisecond {
		t.Fatalf("EOF at %v, want at the recording's end (30ms)", got)
	}
	if !bytes.Equal(sent.Bytes(), r.data) {
		t.Fatal("paced reads do not reassemble the recording's bytes")
	}
}

// At speed 2 the schedule runs twice as fast as sensor time.
func TestReplaySpeed(t *testing.T) {
	r := tinyRecording(t)
	t0 := time.Unix(0, 0)
	p := replay{rec: r, start: t0, speed: 2}
	if due, _ := p.windowDue(1); due.Sub(t0) != 12500*time.Microsecond {
		t.Fatalf("window 1 due at %v, want 12.5ms", due.Sub(t0))
	}
	if _, ok := p.windowDue(3); ok {
		t.Fatal("window past the recording has a due instant")
	}
}

// Events due at the same instant leave in one read.
func TestPacedReaderBatchesDueEvents(t *testing.T) {
	r := tinyRecording(t)
	t0 := time.Unix(0, 0)
	clk := &fakeClock{now: t0.Add(time.Second)}
	var lags []float64
	pr := &pacedReader{p: replay{rec: r, start: t0, speed: 1}, clk: clk, onLag: func(ms float64) { lags = append(lags, ms) }}
	data, err := io.ReadAll(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, r.data) {
		t.Fatal("bytes differ from the recording")
	}
	if len(lags) != 1 || lags[0] != 999 {
		t.Fatalf("lags = %v, want one read 999 ms late", lags)
	}
}
