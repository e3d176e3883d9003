package main

import (
	"io"
	"time"
)

// clock is the paced generator's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// replay is one recording's open-loop schedule: the event at sensor time
// T is due at start + T/speed, and the end of the recording at
// start + duration/speed. speed is sensor milliseconds per wall
// millisecond, so 1 replays in sensor time.
type replay struct {
	rec   *recording
	start time.Time
	speed float64
}

func (p replay) due(sensorMS float64) time.Time {
	return p.start.Add(time.Duration(sensorMS / p.speed * float64(time.Millisecond)))
}

// end is when the recording's last window is due to close.
func (p replay) end() time.Time { return p.due(p.rec.duration) }

// windowDue is the latency origin of window k: the instant the generator
// was due to send the first event past the window's end (the end of the
// recording for the tail windows). The server cannot close the window
// before it has that event, so the window's own length is excluded.
func (p replay) windowDue(k int) (time.Time, bool) {
	if k < 0 || k >= len(p.rec.closeMS) {
		return time.Time{}, false
	}
	return p.due(p.rec.closeMS[k]), true
}

// latency is window k's latency in milliseconds for a result that
// arrived at `at`, measured from the window's due instant.
func (p replay) latency(k int, at time.Time) (float64, bool) {
	due, ok := p.windowDue(k)
	if !ok {
		return 0, false
	}
	return ms(at.Sub(due)), true
}

// pacedReader hands a recording's AEDAT bytes to a client as the schedule
// comes due: each Read waits for the next event's due instant and returns
// every event due by then. After the last event it waits for the end of
// the recording before reporting io.EOF. onLag receives how late, in
// milliseconds, each batch of events left relative to its first event's
// due instant.
type pacedReader struct {
	p     replay
	clk   clock
	off   int
	onLag func(ms float64)
}

func (r *pacedReader) Read(b []byte) (int, error) {
	rec := r.p.rec
	if r.off < rec.header {
		n := copy(b, rec.data[r.off:rec.header])
		r.off += n
		return n, nil
	}
	if r.off >= len(rec.data) {
		r.clk.SleepUntil(r.p.end())
		return 0, io.EOF
	}
	i := (r.off - rec.header) / rec.recSize
	first := r.p.due(rec.events[i].T)
	r.clk.SleepUntil(first)
	now := r.clk.Now()
	if r.onLag != nil && (r.off-rec.header)%rec.recSize == 0 {
		r.onLag(float64(now.Sub(first)) / float64(time.Millisecond))
	}
	j := i + 1
	for j < len(rec.events) && !r.p.due(rec.events[j].T).After(now) {
		j++
	}
	end := min(rec.header+j*rec.recSize, r.off+len(b))
	n := copy(b, rec.data[r.off:end])
	r.off += n
	return n, nil
}
