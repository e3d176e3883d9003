package stream

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/defense"
	"repro/internal/dvs"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// noisyStream is a gesture polluted with isolated noise and a flooding
// pixel, so every AQF rule (support, polarity, hot pixel) does real
// work during the equivalence runs.
func noisyStream(t *testing.T, class int, durMS float64, seed uint64) *dvs.Stream {
	t.Helper()
	s := testStream(class, durMS, seed)
	r := rng.New(seed + 1000)
	for k := 0; k < 80; k++ {
		s.Events = append(s.Events, dvs.Event{X: r.Intn(16), Y: r.Intn(16), P: 1, T: r.Float64() * durMS})
	}
	for k := 0; k < int(durMS/4); k++ {
		tms := float64(k) * 4
		s.Events = append(s.Events, dvs.Event{X: 0, Y: 0, P: 1, T: tms})
		s.Events = append(s.Events, dvs.Event{X: 0, Y: 0, P: -1, T: tms})
	}
	s.Sort()
	return s
}

// incrementalReference is the in-memory path the incremental mode is
// pinned to: whole-stream AQF first, then window the filtered flow —
// windows cut on quantized timestamps, classified in one batch.
func incrementalReference(net *snn.Network, s *dvs.Stream, p defense.AQFParams, windowMS float64, steps int) ([]int, []int) {
	filtered := defense.AQF(s, p)
	subs := dvs.SplitWindows(filtered, windowMS)
	samples := make([][]*tensor.Tensor, len(subs))
	counts := make([]int, len(subs))
	for i, sub := range subs {
		samples[i] = sub.Voxelize(steps)
		counts[i] = len(sub.Events)
	}
	return net.PredictBatch(samples), counts
}

// TestStreamingIncrementalAQFMatchesWholeStream is the serving-side pin
// of the cross-window filter: pipeline predictions with Options.AQF
// equal classifying SplitWindows over the whole-stream AQF output, at
// every worker count and across chunk/batch/window geometry — the
// guarantee the lossy per-window mode never had.
func TestStreamingIncrementalAQFMatchesWholeStream(t *testing.T) {
	defer tensor.SetWorkers(0)
	steps := 5
	net := testNet(steps)
	s := noisyStream(t, 2, 400, 51)
	data := encode(t, s)
	p := defense.DefaultAQFParams(0.015)

	for _, windowMS := range []float64{400, 100, 61.5, 25} {
		tensor.SetWorkers(1)
		want, wantCounts := incrementalReference(net, s, p, windowMS, steps)
		for _, cfg := range []struct {
			workers, chunk, batch int
		}{
			{1, 1, 1},
			{1, 7, 3},
			{2, 4096, 2},
			{4, 13, 4},
		} {
			tensor.SetWorkers(cfg.workers)
			results, err := Predict(bytes.NewReader(data), net, Options{
				WindowMS: windowMS, Steps: steps, AQF: &p,
				Workers: cfg.workers, ChunkEvents: cfg.chunk, Batch: cfg.batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]int, len(results))
			for i, r := range results {
				got[i] = r.Class
				if r.Events != wantCounts[i] {
					t.Fatalf("window=%gms workers=%d chunk=%d batch=%d: window %d kept %d events, reference kept %d",
						windowMS, cfg.workers, cfg.chunk, cfg.batch, i, r.Events, wantCounts[i])
				}
			}
			assertSameClasses(t, want, got, fmt.Sprintf(
				"incremental window=%gms workers=%d chunk=%d batch=%d",
				windowMS, cfg.workers, cfg.chunk, cfg.batch))
		}
	}
}

// TestStreamingIncrementalBeatsPerWindowGrace demonstrates why the
// pipeline filters across windows: with a window no longer than T2,
// filtering each window as a standalone stream removes nothing at all
// (every event falls in its window's grace period), while the
// incremental form keeps filtering after the recording's first T2 ms.
func TestStreamingIncrementalBeatsPerWindowGrace(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	steps := 4
	net := testNet(steps)
	// Sparse isolated noise (sparse enough that it cannot vouch for
	// itself through the support rule): the whole-stream filter should
	// remove most of it past the opening grace period.
	r := rng.New(77)
	s := &dvs.Stream{W: 16, H: 16, Duration: 800}
	for i := 0; i < 150; i++ {
		s.Events = append(s.Events, dvs.Event{X: r.Intn(16), Y: r.Intn(16), P: 1, T: r.Float64() * 800})
	}
	s.Sort()
	data := encode(t, s)
	p := defense.DefaultAQFParams(0.01) // T2 = 50ms

	kept := func(o Options) int {
		results, err := Predict(bytes.NewReader(data), net, o)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, res := range results {
			n += res.Events
		}
		return n
	}
	perWindow := 0
	for _, sub := range dvs.SplitWindows(s, 50) {
		perWindow += len(defense.AQF(sub, p).Events)
	}
	incremental := kept(Options{WindowMS: 50, Steps: steps, AQF: &p})
	if perWindow != len(s.Events) {
		t.Fatalf("per-window AQF at window=T2 should pass all %d events (every window is grace period), kept %d",
			len(s.Events), perWindow)
	}
	if incremental*2 > len(s.Events) {
		t.Fatalf("incremental AQF kept %d of %d noise events", incremental, len(s.Events))
	}
}

// TestStreamingIncrementalPipelineReuse reruns one pipeline across
// recordings: the recycled filter state must reset per run.
func TestStreamingIncrementalPipelineReuse(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	steps := 4
	net := testNet(steps)
	p := defense.DefaultAQFParams(0.01)
	pipe, err := NewPipeline(net, Options{WindowMS: 80, Steps: steps, AQF: &p, ChunkEvents: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{81, 82, 83} {
		s := noisyStream(t, int(seed%11), 250, seed)
		want, _ := incrementalReference(net, s, p, 80, steps)
		var got []int
		if err := pipe.Run(bytes.NewReader(encode(t, s)), func(r Result) error {
			got = append(got, r.Class)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		assertSameClasses(t, want, got, fmt.Sprintf("reuse seed=%d", seed))
	}
}
