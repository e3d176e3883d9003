// Package repro's top-level benchmarks regenerate every table and figure
// of the paper at Tiny scale (one full experiment per benchmark
// iteration) and report the headline metrics alongside wall-clock time.
// Run with:
//
//	go test -bench=. -benchmem
//
// Use cmd/axsnn-repro for the full-scale artifacts; these benchmarks are
// the regression harness that keeps every experiment runnable and its
// key relationships intact.
package repro

import (
	"bytes"
	"testing"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/dvs"
	"repro/internal/encoding"
	"repro/internal/exp"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/stream"
	"repro/internal/tensor"
)

var benchOpts = exp.Options{Scale: exp.Tiny, Seed: 7}

// benchExperiment runs one registered experiment per iteration and
// reports selected metrics (as percentages).
func benchExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	var last exp.Result
	for i := 0; i < b.N; i++ {
		r, err := exp.Run(id, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, m := range metrics {
		if v, ok := last.Metrics[m]; ok {
			b.ReportMetric(100*v, m+"_%")
		}
	}
}

// BenchmarkFig1 regenerates Fig. 1 (AccSNN vs AxSNN(0.1) under PGD).
func BenchmarkFig1(b *testing.B) {
	benchExperiment(b, "fig1", "clean_accsnn", "accsnn_eps1.0", "axsnn0.1_eps1.0")
}

// BenchmarkFig2 regenerates Fig. 2 (PGD across approximation levels).
func BenchmarkFig2(b *testing.B) {
	benchExperiment(b, "fig2", "AccSNN_eps0.9", "Ax(0.01)_eps0.9", "Ax(1)_eps0")
}

// BenchmarkFig3 regenerates Fig. 3 (BIM across approximation levels).
func BenchmarkFig3(b *testing.B) {
	benchExperiment(b, "fig3", "AccSNN_eps0.9", "Ax(0.01)_eps0.9")
}

// BenchmarkFig4 regenerates Fig. 4 (FP32 structural heatmaps, ε=1).
func BenchmarkFig4(b *testing.B) {
	benchExperiment(b, "fig4", "pgd_mean", "bim_mean", "pgd_best", "bim_best")
}

// BenchmarkFig5 regenerates Fig. 5 (FP16 structural heatmaps, ε=1).
func BenchmarkFig5(b *testing.B) {
	benchExperiment(b, "fig5", "pgd_mean", "bim_mean")
}

// BenchmarkFig6 regenerates Fig. 6 (INT8 structural heatmaps, ε=1).
func BenchmarkFig6(b *testing.B) {
	benchExperiment(b, "fig6", "pgd_mean", "bim_mean")
}

// BenchmarkFig7a regenerates Fig. 7a (clean AccSNN heatmap).
func BenchmarkFig7a(b *testing.B) {
	benchExperiment(b, "fig7a", "mean", "best")
}

// BenchmarkFig7b regenerates Fig. 7b (neuromorphic attack bars).
func BenchmarkFig7b(b *testing.B) {
	benchExperiment(b, "fig7b", "accsnn_clean", "accsnn_sparse", "accsnn_frame")
}

// BenchmarkTable1 regenerates Table I (Algorithm 1 best settings).
func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, "table1")
}

// BenchmarkTable2 regenerates Table II (AQF recovered accuracy).
func BenchmarkTable2(b *testing.B) {
	benchExperiment(b, "table2", "baseline")
}

// BenchmarkEnergy regenerates the §I energy-efficiency ablation.
func BenchmarkEnergy(b *testing.B) {
	benchExperiment(b, "energy", "savings_level0.1", "acc_level0.1")
}

// BenchmarkAblationEncoding regenerates the spike-encoding extension.
func BenchmarkAblationEncoding(b *testing.B) {
	benchExperiment(b, "ablation-encoding", "rate_clean", "ttfs_clean")
}

// BenchmarkAblationAQF regenerates the AQF-constants extension.
func BenchmarkAblationAQF(b *testing.B) {
	benchExperiment(b, "ablation-aqf", "baseline")
}

// BenchmarkAblationFilters regenerates the AQF-vs-baseline-filter
// comparison under the three neuromorphic attacks.
func BenchmarkAblationFilters(b *testing.B) {
	benchExperiment(b, "ablation-filters", "Frame_aqf", "Frame_baf")
}

// BenchmarkHWMapping regenerates the Loihi-class deployment footprint.
func BenchmarkHWMapping(b *testing.B) {
	benchExperiment(b, "hw-mapping", "cores_level0", "cores_level0.3")
}

// ---------------------------------------------------------------------
// Component throughput benchmarks (the substrate's hot paths).

// BenchmarkSNNInference measures single-sample inference latency of the
// lite convolutional MNIST topology at T=8.
func BenchmarkSNNInference(b *testing.B) {
	r := rng.New(1)
	cfg := snn.DefaultConfig(0.5, 8)
	net := snn.MNISTNet(cfg, 1, 16, 16, true, r)
	dcfg := dataset.DefaultSynthConfig()
	img := dataset.RenderDigit(3, dcfg, r)
	frames := encoding.Rate{}.Encode(img, cfg.Steps, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Predict(frames)
	}
}

// BenchmarkSNNInferenceBatch measures batched inference throughput:
// one PredictBatch over 32 samples per iteration, reporting the
// per-sample latency. Compare against BenchmarkSNNInference to see what
// the batched data path and the shared kernel pool buy.
func BenchmarkSNNInferenceBatch(b *testing.B) {
	const batch = 32
	r := rng.New(1)
	cfg := snn.DefaultConfig(0.5, 8)
	net := snn.MNISTNet(cfg, 1, 16, 16, true, r)
	dcfg := dataset.DefaultSynthConfig()
	samples := make([][]*tensor.Tensor, batch)
	for i := range samples {
		img := dataset.RenderDigit(i%10, dcfg, r)
		samples[i] = encoding.Rate{}.Encode(img, cfg.Steps, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.PredictBatch(samples)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sample")
}

// trainStepFixture builds the BenchmarkTrainStep workload: the
// lite convolutional MNIST topology at T=8 with a 16-sample rate-coded
// minibatch, the snn.Train hot loop's shape.
func trainStepFixture() (*snn.Network, [][]*tensor.Tensor, []int) {
	const batch = 16
	r := rng.New(2)
	cfg := snn.DefaultConfig(0.5, 8)
	net := snn.MNISTNet(cfg, 1, 16, 16, true, r)
	dcfg := dataset.DefaultSynthConfig()
	samples := make([][]*tensor.Tensor, batch)
	labels := make([]int, batch)
	for i := range samples {
		labels[i] = i % 10
		img := dataset.RenderDigit(labels[i], dcfg, r)
		samples[i] = encoding.Rate{}.Encode(img, cfg.Steps, r)
	}
	return net, samples, labels
}

// BenchmarkTrainStep measures the steady-state arena training step: one
// minibatch cycle (zeroing, frame stacking, training forward, loss,
// BPTT, optimizer step — gradient clipping is off here, as in the
// default TrainOptions; the snn property test covers the clipped
// cycle) against one arena. Runs in deterministic serial mode so
// allocs/op stays 0 — the pool's parallel dispatch allocates job
// descriptors; CI gates this benchmark (and BenchmarkPredict) at 0
// allocs/op.
func BenchmarkTrainStep(b *testing.B) {
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	net, samples, labels := trainStepFixture()
	s := net.AcquireScratch()
	defer net.Release(s)
	params, grads := net.Params(), net.Grads()
	opt := snn.NewAdam(2e-3)
	scale := 1 / float32(len(samples))
	step := func() {
		net.ZeroGrads()
		net.TrainStepScratch(samples, labels, s)
		opt.Step(params, grads, scale)
	}
	step() // warm the arena and the optimizer state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	// Stop before reporting: ReportMetric's bookkeeping must not count
	// against the 0 allocs/op gate at -benchtime=1x.
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(samples)), "ns/sample")
}

// BenchmarkGEMM measures the blocked parallel MatMul on a panel shaped
// like a batched convolution lowering — the kernel every hot path above
// funnels into. Worker scaling shows up here first on multi-core
// machines.
func BenchmarkGEMM(b *testing.B) {
	r := rng.New(3)
	w := tensor.New(32, 288)
	for i := range w.Data {
		w.Data[i] = r.NormFloat32()
	}
	cols := tensor.New(288, 2048)
	for i := range cols.Data {
		if r.Float64() < 0.3 {
			cols.Data[i] = 1
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMul(w, cols)
	}
}

// BenchmarkPGDCraft measures adversarial example crafting per image.
func BenchmarkPGDCraft(b *testing.B) {
	r := rng.New(3)
	cfg := snn.DefaultConfig(0.5, 6)
	net := snn.DenseNet(cfg, 256, 64, 10, r)
	dcfg := dataset.DefaultSynthConfig()
	img := dataset.RenderDigit(7, dcfg, r)
	atk := attack.PGD(0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = atk.Perturb(net, img, 7, r)
	}
}

// BenchmarkPredict measures the steady-state single-sample inference
// hot path through the arena (Predict acquires/releases a pooled
// Scratch internally).
func BenchmarkPredict(b *testing.B) {
	r := rng.New(1)
	cfg := snn.DefaultConfig(0.5, 8)
	net := snn.MNISTNet(cfg, 1, 16, 16, true, r)
	dcfg := dataset.DefaultSynthConfig()
	img := dataset.RenderDigit(3, dcfg, r)
	frames := encoding.Rate{}.Encode(img, cfg.Steps, r)
	net.Predict(frames) // warm the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Predict(frames)
	}
}

// BenchmarkPredictInt8 measures the same steady-state inference hot
// path through the quantized INT8 tier: per-channel int8 weight panels
// (built cold, before the timer), int32 accumulation, float32 epilogue.
// Runs in deterministic serial mode so allocs/op stays 0 — the parallel
// int8 kernel allocates per-block scratch, exactly like the parallel
// paths the other gated benchmarks pin out. CI's zero-alloc and ns/op
// gates cover this benchmark; compare against BenchmarkPredict for the
// quantization speedup on this topology.
func BenchmarkPredictInt8(b *testing.B) {
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	r := rng.New(1)
	cfg := snn.DefaultConfig(0.5, 8)
	net := snn.MNISTNet(cfg, 1, 16, 16, true, r)
	if err := net.BuildInt8Panels(); err != nil {
		b.Fatal(err)
	}
	if err := net.SetTier(snn.TierINT8); err != nil {
		b.Fatal(err)
	}
	dcfg := dataset.DefaultSynthConfig()
	img := dataset.RenderDigit(3, dcfg, r)
	frames := encoding.Rate{}.Encode(img, cfg.Steps, r)
	net.Predict(frames) // warm the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Predict(frames)
	}
}

// BenchmarkNeuromorphicPerturbSet measures the batched event-attack
// path: one Sparse.PerturbSet over a small gesture set per iteration,
// reporting per-stream latency. Worker scaling shows up here on
// multi-core machines (per-stream crafting fans out over the pool).
func BenchmarkNeuromorphicPerturbSet(b *testing.B) {
	gcfg := dvs.DefaultGestureConfig()
	gcfg.Duration = 400
	set := dvs.GenerateGestureSet(8, gcfg, 5)
	net := snn.DVSNet(snn.DefaultConfig(1.0, 8), 32, 32, 11, true, rng.New(6), nil)
	atk := attack.NewSparse()
	atk.MaxIter = 3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = atk.PerturbSet(net, set)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*set.Len()), "ns/stream")
}

// BenchmarkAQFFilterSet measures batched AQF filtering: one FilterSet
// over a set of streams per iteration, reporting per-stream latency.
func BenchmarkAQFFilterSet(b *testing.B) {
	streams := make([]*dvs.Stream, 8)
	for i := range streams {
		streams[i] = dvs.GenerateGesture(i%11, dvs.DefaultGestureConfig(), rng.New(uint64(40+i)))
	}
	p := defense.DefaultAQFParams(0.015)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = defense.FilterSet(streams, p)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(streams)), "ns/stream")
}

// BenchmarkAQFFilter measures AQF event-filtering throughput.
func BenchmarkAQFFilter(b *testing.B) {
	s := dvs.GenerateGesture(7, dvs.DefaultGestureConfig(), rng.New(4))
	p := defense.DefaultAQFParams(0.015)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = defense.AQF(s, p)
	}
	b.ReportMetric(float64(len(s.Events)), "events/op")
}

// BenchmarkIncrementalAQF measures the cross-window online AQF pushing
// the same flow in reader-sized chunks — the filter the streaming
// pipeline and the serve sessions default to. Steady state reuses every
// internal buffer, so throughput is directly comparable to the
// whole-stream BenchmarkAQFFilter above.
func BenchmarkIncrementalAQF(b *testing.B) {
	s := dvs.GenerateGesture(7, dvs.DefaultGestureConfig(), rng.New(4))
	p := defense.DefaultAQFParams(0.015)
	f, err := defense.NewIncrementalAQF(s.W, s.H, s.Duration, p)
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 512
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Reset(s.Duration)
		for lo := 0; lo < len(s.Events); lo += chunk {
			hi := lo + chunk
			if hi > len(s.Events) {
				hi = len(s.Events)
			}
			if _, err := f.Push(s.Events[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
		f.Flush()
	}
	b.ReportMetric(float64(len(s.Events)), "events/op")
}

// BenchmarkSparseAttack measures the gradient-guided event attack on one
// stream.
func BenchmarkSparseAttack(b *testing.B) {
	gcfg := dvs.DefaultGestureConfig()
	gcfg.Duration = 400
	s := dvs.GenerateGesture(2, gcfg, rng.New(5))
	net := snn.DVSNet(snn.DefaultConfig(1.0, 8), 32, 32, 11, true, rng.New(6), nil)
	atk := attack.NewSparse()
	atk.MaxIter = 5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = atk.Perturb(net, s, 2)
	}
}

// BenchmarkStreamWindow measures one steady-state window of the
// streaming pipeline — windowed voxelization into recycled frames plus
// batched arena inference — the per-window cost that must stay at 0
// allocs/op (CI's zero-alloc gate covers this benchmark).
func BenchmarkStreamWindow(b *testing.B) {
	gcfg := dvs.DefaultGestureConfig()
	gcfg.Duration = 400
	s := dvs.GenerateGesture(4, gcfg, rng.New(8))
	net := snn.DVSNet(snn.DefaultConfig(1.0, 8), 32, 32, 11, true, rng.New(6), nil)
	const windowMS = 100.0
	windows := dvs.SplitWindows(s, windowMS)
	frames := make([]*tensor.Tensor, net.Cfg.Steps)
	for i := range frames {
		frames[i] = tensor.New(2, 32, 32)
	}
	samples := [][]*tensor.Tensor{frames}
	out := make([]int, 1)
	window := func(i int) {
		dvs.VoxelizeWindowInto(frames, windows[i%len(windows)].Events, 32, 32, 0, windowMS)
		net.PredictBatchInto(samples, out)
	}
	window(0) // warm the arena and frame buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window(i)
	}
}

// BenchmarkStreamPipeline measures the end-to-end streaming serving
// path: AEDAT decode, windowing, voxelization and batched inference
// over a multi-gesture flow, reporting per-window latency and event
// throughput.
func BenchmarkStreamPipeline(b *testing.B) {
	gcfg := dvs.DefaultGestureConfig()
	gcfg.Duration = 400
	segs := make([]*dvs.Stream, 8)
	for k := range segs {
		segs[k] = dvs.GenerateGesture(k%dvs.GestureClasses, gcfg, rng.New(uint64(80+k)))
	}
	flow, err := dvs.ConcatStreams(segs...)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dvs.WriteAEDAT(&buf, flow); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	net := snn.DVSNet(snn.DefaultConfig(1.0, 8), 32, 32, 11, true, rng.New(6), nil)
	p, err := stream.NewPipeline(net, stream.Options{WindowMS: 100, ChunkEvents: 1024})
	if err != nil {
		b.Fatal(err)
	}
	emit := func(stream.Result) error { return nil }
	windows := dvs.NumWindows(flow.Duration, 100)
	if err := p.Run(bytes.NewReader(data), emit); err != nil { // warm the slots
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Run(bytes.NewReader(data), emit); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*windows), "ns/window")
	b.ReportMetric(float64(b.N*len(flow.Events))/b.Elapsed().Seconds(), "events/s")
}
