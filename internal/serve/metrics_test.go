package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/tensor"
)

func TestLatencyHistObserveQuantile(t *testing.T) {
	var h LatencyHist
	// 90 samples at ~1ms, 10 at ~100ms: p50 lands in the 1ms bucket's
	// neighborhood, p99 in the 100ms one. Quantile reports the bucket
	// upper bound, so allow one quarter-octave (~19%) of geometry slop.
	h.Observe(int64(time.Millisecond), 90)
	h.Observe(int64(100*time.Millisecond), 10)
	s := h.Snapshot()
	if got := s.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	checkQ := func(q float64, want time.Duration) {
		t.Helper()
		got := s.Quantile(q)
		if got < want || float64(got) > float64(want)*1.2 {
			t.Fatalf("Quantile(%.2f) = %v, want within [%v, %v]", q, got, want, time.Duration(float64(want)*1.2))
		}
	}
	checkQ(0.50, time.Millisecond)
	checkQ(0.90, time.Millisecond)
	checkQ(0.99, 100*time.Millisecond)
}

func TestLatencyHistEdges(t *testing.T) {
	var h LatencyHist
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram Quantile = %v, want 0", got)
	}
	// Below the first bound and past the last both land somewhere
	// finite: the floor bucket and the overflow bucket.
	h.Observe(1, 1)
	if got := h.Snapshot().Quantile(1.0); got != time.Duration(histMinNs) {
		t.Fatalf("sub-minimum sample reports %v, want the %v floor", got, time.Duration(histMinNs))
	}
	h.Observe(int64(time.Hour), 1)
	if got := h.Snapshot().Quantile(1.0); got != time.Duration(2*histBounds[histBuckets-1]) {
		t.Fatalf("overflow sample reports %v, want %v", got, time.Duration(2*histBounds[histBuckets-1]))
	}
}

func TestLatencyHistSub(t *testing.T) {
	var h LatencyHist
	h.Observe(int64(time.Millisecond), 5)
	before := h.Snapshot()
	h.Observe(int64(time.Millisecond), 3)
	delta := h.Snapshot().Sub(before)
	if got := delta.Count(); got != 3 {
		t.Fatalf("interval count = %d, want 3", got)
	}
}

// TestServeMetricsEndpoint is the metrics smoke: after serving real
// traffic, the HTTP handler must report the session, window, credit
// and pool gauges consistently with the load that just ran.
func TestServeMetricsEndpoint(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(4, 61)
	o := stream.Options{WindowMS: 45, Steps: 4, Batch: 2, ChunkEvents: 64}
	srv, err := NewServer(master, ServerOptions{Pipeline: o, MaxSessions: 2, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := testRecording(t, 1, 300, 29)
	want := standalone(t, master, data, o)
	cl, done := startSession(srv)
	defer cl.Close()
	if _, err := cl.Stream(bytes.NewReader(data), nil); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	<-done

	ts := httptest.NewServer(srv.MetricsHandler())
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics endpoint served undecodable JSON: %v", err)
	}
	if snap.SessionsServed != 1 || snap.SessionsActive != 0 {
		t.Fatalf("served=%d active=%d, want 1/0", snap.SessionsServed, snap.SessionsActive)
	}
	if snap.WindowsServed != int64(len(want)) || snap.ResultsSent != int64(len(want)) {
		t.Fatalf("windows=%d results=%d, want %d/%d", snap.WindowsServed, snap.ResultsSent, len(want), len(want))
	}
	if snap.SlotCap != 1 || snap.CloneCap != 1 {
		t.Fatalf("slot_cap=%d clone_cap=%d, want 1/1", snap.SlotCap, snap.CloneCap)
	}
	// The session rode the default shared-batch scheduler, so frame
	// memory lived in its entry pool — the slot pool stayed untouched —
	// and every window must show up in the continuous-batching gauges.
	if snap.SlotOccupancy != 0 || snap.SlotHighWater != 0 {
		t.Fatalf("slot occupancy=%d high_water=%d, want 0/0 under shared batching", snap.SlotOccupancy, snap.SlotHighWater)
	}
	if !snap.SharedBatch {
		t.Fatal("shared_batch = false, want true by default")
	}
	if snap.SchedWindows != int64(len(want)) || snap.SchedTicks <= 0 {
		t.Fatalf("sched windows=%d ticks=%d, want %d windows over > 0 ticks", snap.SchedWindows, snap.SchedTicks, len(want))
	}
	if snap.BatchFillAvg <= 0 {
		t.Fatalf("batch_fill_avg = %v, want > 0", snap.BatchFillAvg)
	}
	var filled int64
	for n, c := range snap.BatchFillHist {
		filled += int64(n) * c
	}
	if filled != snap.SchedWindows {
		t.Fatalf("batch_fill_hist sums to %d windows, counters say %d", filled, snap.SchedWindows)
	}
	if snap.SchedQueueDepth != 0 {
		t.Fatalf("sched_queue_depth = %d after drain, want 0", snap.SchedQueueDepth)
	}
	if fair := int64(srv.Scheduler().FairShare()); snap.SchedMaxPerTick > fair {
		t.Fatalf("sched_max_per_tick = %d exceeds the fairness cap %d", snap.SchedMaxPerTick, fair)
	}
	if snap.WindowLatencyP99Ms <= 0 || snap.WindowsPerSec <= 0 || snap.UptimeSec <= 0 {
		t.Fatalf("p99=%v windows/s=%v uptime=%v, want all positive",
			snap.WindowLatencyP99Ms, snap.WindowsPerSec, snap.UptimeSec)
	}
	if snap.ResultsBuffered != 0 {
		t.Fatalf("results_buffered = %d after drain, want 0", snap.ResultsBuffered)
	}
}

// TestServeWindowsServedAtDone pins the serve-side publication order:
// the moment a client holds its done frame, windows_served already
// counts every result it received — on the shared scheduler and on a
// private pipeline — without waiting for the server to wind the session
// down.
func TestServeWindowsServedAtDone(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(4, 63)
	o := stream.Options{WindowMS: 40, Steps: 4, Batch: 2, ChunkEvents: 64}
	data := testRecording(t, 2, 300, 31)
	for _, shared := range []bool{true, false} {
		srv, err := NewServer(master, ServerOptions{Pipeline: o, MaxSessions: 1, PoolSize: 1, SharedBatch: Bool(shared)})
		if err != nil {
			t.Fatal(err)
		}
		cl, done := startSession(srv)
		var received int64
		for rec := 0; rec < 3; rec++ {
			if _, err := cl.Stream(bytes.NewReader(data), func(stream.Result) error {
				received++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got := srv.MetricsSnapshot().WindowsServed; got != received {
				t.Fatalf("shared=%v recording %d: windows_served = %d at the client's done, client received %d",
					shared, rec, got, received)
			}
		}
		cl.Close()
		<-done
	}
}
