package stream

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dvs"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// testNet builds a small deterministic gesture classifier (untrained
// weights are fine: predictions only need to be deterministic, not
// accurate, for equivalence pinning).
func testNet(steps int) *snn.Network {
	return snn.DVSNet(snn.DefaultConfig(1.0, steps), 16, 16, dvs.GestureClasses, true, rng.New(3), nil)
}

// testStream records one synthetic gesture on the 16×16 sensor.
func testStream(class int, durMS float64, seed uint64) *dvs.Stream {
	cfg := dvs.DefaultGestureConfig()
	cfg.W, cfg.H = 16, 16
	cfg.Duration = durMS
	cfg.BlobR = 2
	return dvs.GenerateGesture(class, cfg, rng.New(seed))
}

// encode serializes a stream to an in-memory AEDAT container.
func encode(t *testing.T, s *dvs.Stream) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dvs.WriteAEDAT(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceClasses is the in-memory path the ROADMAP names: load the
// whole recording, split it into windows, voxelize each and run one
// batched prediction. SplitWindows is implemented independently of the
// streaming Windower, so agreement pins two implementations against
// each other.
func referenceClasses(net *snn.Network, s *dvs.Stream, windowMS float64, steps int) []int {
	subs := dvs.SplitWindows(s, windowMS)
	samples := make([][]*tensor.Tensor, len(subs))
	for i, sub := range subs {
		samples[i] = sub.Voxelize(steps)
	}
	return net.PredictBatch(samples)
}

// streamClasses runs the streaming pipeline and returns the classes in
// window order, failing on any ordering or index gap.
func streamClasses(t *testing.T, net *snn.Network, data []byte, o Options) []int {
	t.Helper()
	results, err := Predict(bytes.NewReader(data), net, o)
	if err != nil {
		t.Fatalf("stream.Predict: %v", err)
	}
	classes := make([]int, len(results))
	for i, r := range results {
		if r.Window != i {
			t.Fatalf("result %d has window index %d: emission out of order", i, r.Window)
		}
		classes[i] = r.Class
	}
	return classes
}

func assertSameClasses(t *testing.T, want, got []int, ctx string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d windows, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: window %d class %d, want %d", ctx, i, got[i], want[i])
		}
	}
}

// TestStreamingMatchesInMemory is the core equivalence suite: the
// streaming pipeline's per-window classes must be bit-identical to the
// in-memory LoadAEDAT+SplitWindows+Voxelize+PredictBatch path at every
// worker count, across chunk and window sizes that do and don't divide
// the event count and the recording duration evenly.
func TestStreamingMatchesInMemory(t *testing.T) {
	defer tensor.SetWorkers(0)
	steps := 5
	net := testNet(steps)
	s := testStream(4, 400, 11)
	data := encode(t, s)

	// Load back through the streaming-codec-backed reader so the
	// reference consumes exactly what the pipeline consumes.
	loaded, err := dvs.ReadAEDAT(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	for _, windowMS := range []float64{400, 100, 77, 13.5} {
		tensor.SetWorkers(1)
		want := referenceClasses(net, loaded, windowMS, steps)
		if len(want) != dvs.NumWindows(400, windowMS) {
			t.Fatalf("reference emitted %d windows, want %d", len(want), dvs.NumWindows(400, windowMS))
		}
		for _, cfg := range []struct {
			workers, chunk, batch int
		}{
			{1, 1, 1},                  // event-at-a-time, serial
			{1, 7, 3},                  // chunk not dividing the count
			{2, 4096, 2},               // chunk larger than the recording
			{4, 1, 3},                  // max fan-out, minimal chunks
			{3, len(s.Events) + 99, 4}, // single over-sized chunk
			{2, len(s.Events) / 3, 1},  // batch of one window
		} {
			tensor.SetWorkers(cfg.workers)
			got := streamClasses(t, net, data, Options{
				WindowMS: windowMS, Steps: steps,
				Workers: cfg.workers, ChunkEvents: cfg.chunk, Batch: cfg.batch,
			})
			assertSameClasses(t, want, got, fmt.Sprintf(
				"window=%gms workers=%d chunk=%d batch=%d",
				windowMS, cfg.workers, cfg.chunk, cfg.batch))
		}
	}
}

// TestStreamingWholeRecordingMatchesPredict pins the degenerate single
// window to the classic whole-recording path: WindowMS = Duration must
// reproduce Predict(Voxelize) exactly.
func TestStreamingWholeRecordingMatchesPredict(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	steps := 6
	net := testNet(steps)
	s := testStream(7, 300, 21)
	want := net.Predict(s.Voxelize(steps))
	got := streamClasses(t, net, encode(t, s), Options{WindowMS: s.Duration, Steps: steps})
	if len(got) != 1 || got[0] != want {
		t.Fatalf("single-window streaming predicted %v, want [%d]", got, want)
	}
}

// TestStreamingEmptyWindows covers silent stretches and a silent tail:
// windows with no events must still be emitted (they are the pipeline's
// heartbeat) and classified identically to the in-memory reference.
func TestStreamingEmptyWindows(t *testing.T) {
	defer tensor.SetWorkers(0)
	steps := 4
	net := testNet(steps)
	s := &dvs.Stream{W: 16, H: 16, Duration: 200}
	// Events only in [0, 20]; everything after is silence.
	for i := 0; i < 30; i++ {
		s.Events = append(s.Events, dvs.Event{X: i % 16, Y: (i * 3) % 16, P: 1 - 2*int8(i%2), T: float64(i) * 20 / 30})
	}
	s.Sort()
	data := encode(t, s)
	tensor.SetWorkers(1)
	want := referenceClasses(net, s, 25, steps)
	for _, workers := range []int{1, 3} {
		tensor.SetWorkers(workers)
		got := streamClasses(t, net, data, Options{WindowMS: 25, Steps: steps, Workers: workers, ChunkEvents: 8})
		if len(got) != 8 {
			t.Fatalf("%d workers: %d windows, want 8", workers, len(got))
		}
		assertSameClasses(t, want, got, "empty windows")
	}
}

// TestStreamingUnsortedInput is the regression test for the ordering
// fix: a recording with mildly out-of-order events (bounded
// displacement) streams correctly through the reader's reorder buffer,
// matching the sorted in-memory reference; without the buffer the
// windower refuses instead of silently misbinning.
func TestStreamingUnsortedInput(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	steps := 4
	net := testNet(steps)
	sorted := testStream(5, 200, 41)
	want := referenceClasses(net, sorted, 50, steps)

	// Perturb the order with bounded displacement: swap events up to 6
	// positions apart, deterministically.
	shuffled := sorted.Clone()
	r := rng.New(7)
	for k := 0; k < len(shuffled.Events)/2; k++ {
		i := r.Intn(len(shuffled.Events) - 6)
		j := i + 1 + r.Intn(6)
		shuffled.Events[i], shuffled.Events[j] = shuffled.Events[j], shuffled.Events[i]
	}
	data := encode(t, shuffled)

	got := streamClasses(t, net, data, Options{
		WindowMS: 50, Steps: steps, ReorderWindow: 16, ChunkEvents: 5,
	})
	assertSameClasses(t, want, got, "reordered input")

	// Without the reorder buffer, an event that steps back across a
	// window boundary must fail loudly, not misbin.
	boundary := -1
	for i := 1; i < len(sorted.Events); i++ {
		if int(sorted.Events[i].T/50) != int(sorted.Events[i-1].T/50) {
			boundary = i
			break
		}
	}
	if boundary < 0 {
		t.Fatal("no window boundary in the test stream")
	}
	bad := sorted.Clone()
	bad.Events[boundary-1], bad.Events[boundary] = bad.Events[boundary], bad.Events[boundary-1]
	if _, err := Predict(bytes.NewReader(encode(t, bad)), net, Options{WindowMS: 50, Steps: steps}); err == nil {
		t.Fatal("expected an out-of-order error without a reorder buffer")
	}
}

// TestPipelineReuse runs two different recordings through one Pipeline:
// recycled slots, frames and clones must not leak state between runs.
func TestPipelineReuse(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(2)
	steps := 4
	net := testNet(steps)
	p, err := NewPipeline(net, Options{WindowMS: 60, Steps: steps, Workers: 2, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{61, 62} {
		s := testStream(int(seed%11), 250, seed)
		tensor.SetWorkers(1)
		want := referenceClasses(net, s, 60, steps)
		tensor.SetWorkers(2)
		var got []int
		if err := p.Run(bytes.NewReader(encode(t, s)), func(r Result) error {
			got = append(got, r.Class)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		assertSameClasses(t, want, got, "pipeline reuse")
	}
}

// TestPipelineOptionValidation pins the option errors.
func TestPipelineOptionValidation(t *testing.T) {
	net := testNet(3)
	if _, err := NewPipeline(net, Options{}); err == nil {
		t.Fatal("expected an error for WindowMS = 0")
	}
	if _, err := NewPipeline(net, Options{WindowMS: -5}); err == nil {
		t.Fatal("expected an error for negative WindowMS")
	}
	if _, err := NewPipeline(net, Options{WindowMS: 50, SensorW: 16}); err == nil {
		t.Fatal("expected an error for a half-set sensor declaration")
	}
}

// TestPipelineRejectsSensorMismatch pins the dimension guard: a
// recording whose sensor differs from the pipeline's — by declaration
// or from a previous run — is refused, not silently misclassified
// (the frame layouts could even alias: (2,8,32) and (2,16,16) are the
// same buffer size).
func TestPipelineRejectsSensorMismatch(t *testing.T) {
	net := testNet(3)
	wrong := &dvs.Stream{W: 8, H: 32, Duration: 100,
		Events: []dvs.Event{{X: 2, Y: 3, P: 1, T: 5}}}
	emit := func(Result) error { return nil }

	// Declared dims: refused outright.
	p, err := NewPipeline(net, Options{WindowMS: 50, Steps: 3, SensorW: 16, SensorH: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(bytes.NewReader(encode(t, wrong)), emit); err == nil {
		t.Fatal("declared 16x16 pipeline accepted an 8x32 recording")
	}

	// Adopted dims: the first recording pins them for later runs.
	p, err = NewPipeline(net, Options{WindowMS: 50, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(bytes.NewReader(encode(t, testStream(1, 100, 71))), emit); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(bytes.NewReader(encode(t, wrong)), emit); err == nil {
		t.Fatal("pipeline pinned to 16x16 accepted an 8x32 recording")
	}
}
