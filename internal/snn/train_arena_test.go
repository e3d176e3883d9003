package snn

import (
	"math"
	"testing"

	"repro/internal/encoding"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// trainCase builds numerically identical network instances on demand so
// twin networks can be trained side by side.
type trainCase struct {
	name    string
	build   func() *Network
	shape   []int
	classes int
}

func trainCases() []trainCase {
	cfg := DefaultConfig(0.5, 6)
	return []trainCase{
		{"dense", func() *Network { return DenseNet(cfg, 144, 32, 10, rng.New(1)) }, []int{12, 12}, 10},
		{"mnist-conv", func() *Network { return MNISTNet(cfg, 1, 12, 12, true, rng.New(2)) }, []int{1, 12, 12}, 10},
		// Dropout layers own an RNG, so twin builds draw identical masks.
		{"dvs-dropout", func() *Network {
			return DVSNet(DefaultConfig(1.0, 6), 16, 16, 11, true, rng.New(3), rng.New(99))
		}, []int{2, 16, 16}, 11},
	}
}

// mustMatchTensors compares aligned tensor lists bit-for-bit.
func mustMatchTensors(t *testing.T, label string, want, got []*tensor.Tensor) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d tensors vs %d", label, len(want), len(got))
	}
	for k := range want {
		for i := range want[k].Data {
			if want[k].Data[i] != got[k].Data[i] {
				t.Fatalf("%s: tensor %d element %d = %v, want %v (must be bit-identical)",
					label, k, i, got[k].Data[i], want[k].Data[i])
			}
		}
	}
}

// TestTrainStepScratchMatchesBatch pins arena reuse across training
// minibatches: one arena carried across changing batch sizes must yield
// the loss, accumulated gradients and optimizer-updated weights of a
// twin that opens a fresh arena for every minibatch, at 1..N workers.
func TestTrainStepScratchMatchesBatch(t *testing.T) {
	defer tensor.SetWorkers(0)
	for _, workers := range []int{1, 3} {
		tensor.SetWorkers(workers)
		for _, tc := range trainCases() {
			ref, arena := tc.build(), tc.build()
			ts := arena.AcquireScratch()
			optR, optA := NewAdam(2e-3), NewAdam(2e-3)
			r := rng.New(21)
			for step := 0; step < 4; step++ {
				batch := 2 + step // exercise buffer resizing
				samples := make([][]*tensor.Tensor, batch)
				labels := make([]int, batch)
				for b := range samples {
					samples[b] = spikeFrames(r, ref.Cfg.Steps, tc.shape)
					labels[b] = b % tc.classes
				}
				ref.ZeroGrads()
				lossR := ref.TrainStepScratch(samples, labels, newScratch())

				arena.ZeroGrads()
				lossA := arena.TrainStepScratch(samples, labels, ts)

				if lossR != lossA {
					t.Fatalf("%s w%d step %d: loss %v, want %v", tc.name, workers, step, lossA, lossR)
				}
				mustMatchTensors(t, tc.name+" grads", ref.Grads(), arena.Grads())

				optR.Step(ref.Params(), ref.Grads(), 1/float32(batch))
				optA.Step(arena.Params(), arena.Grads(), 1/float32(batch))
				mustMatchTensors(t, tc.name+" params", ref.Params(), arena.Params())
			}
			arena.Release(ts)
		}
	}
}

// TestInputGradSumScratchMatchesAllocating pins the attack-crafting
// quantity — the per-step input gradients summed inside the arena — to
// the allocating InputGradientBatch + SumFrameGradients chain, at 1..N
// workers.
func TestInputGradSumScratchMatchesAllocating(t *testing.T) {
	defer tensor.SetWorkers(0)
	for _, workers := range []int{1, 3} {
		tensor.SetWorkers(workers)
		for _, tc := range trainCases() {
			net := tc.build()
			r := rng.New(51)
			samples := make([][]*tensor.Tensor, 4)
			labels := make([]int, len(samples))
			for b := range samples {
				samples[b] = spikeFrames(r, net.Cfg.Steps, tc.shape)
				labels[b] = (b + 1) % tc.classes
			}
			frames := StackFrames(samples, net.Cfg.Steps)
			want := encoding.SumFrameGradients(InputGradientBatch(net, frames, labels))

			clone := net.CloneArchitecture()
			ts := clone.AcquireScratch()
			got := clone.InputGradSumScratch(samples, labels, ts)
			if !tensor.SameShape(want, got) {
				t.Fatalf("%s w%d: shape %v vs %v", tc.name, workers, got.Shape, want.Shape)
			}
			for i := range want.Data {
				if want.Data[i] != got.Data[i] {
					t.Fatalf("%s w%d: grad %d = %v, want %v (must be bit-identical)",
						tc.name, workers, i, got.Data[i], want.Data[i])
				}
			}
			clone.Release(ts)
		}
	}
}

// TestTrainStepScratchZeroAllocs asserts the arena's headline property:
// after warm-up, the whole steady-state minibatch cycle — zeroing,
// frame stacking, training forward, loss, BPTT, clipping, optimizer
// step — allocates nothing in the deterministic serial mode (parallel
// dispatch allocates per-kernel job descriptors).
func TestTrainStepScratchZeroAllocs(t *testing.T) {
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	for _, tc := range trainCases() {
		net := tc.build()
		ts := net.AcquireScratch()
		params, grads := net.Params(), net.Grads()
		r := rng.New(61)
		samples := make([][]*tensor.Tensor, 4)
		labels := make([]int, len(samples))
		for b := range samples {
			samples[b] = spikeFrames(r, net.Cfg.Steps, tc.shape)
			labels[b] = b % tc.classes
		}
		opt := NewAdam(2e-3)
		cycle := func() {
			net.ZeroGrads()
			net.TrainStepScratch(samples, labels, ts)
			clipGradients(grads, 1.0)
			opt.Step(params, grads, 0.25)
		}
		cycle() // warm the arena and the optimizer state
		cycle()
		if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
			t.Errorf("%s: train step allocates %.1f objects/op in steady state, want 0", tc.name, avg)
		}
		net.Release(ts)
	}
}

// TestInputGradSumScratchZeroAllocs asserts the same property for the
// attack-crafting gradient pass against a caller-held arena.
func TestInputGradSumScratchZeroAllocs(t *testing.T) {
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	tc := trainCases()[1]
	net := tc.build().CloneArchitecture()
	ts := net.AcquireScratch()
	r := rng.New(71)
	samples := make([][]*tensor.Tensor, 3)
	labels := make([]int, len(samples))
	for b := range samples {
		samples[b] = spikeFrames(r, net.Cfg.Steps, tc.shape)
		labels[b] = b % tc.classes
	}
	pass := func() {
		net.InputGradSumScratch(samples, labels, ts)
	}
	pass()
	pass()
	if avg := testing.AllocsPerRun(10, pass); avg != 0 {
		t.Errorf("input-gradient pass allocates %.1f objects/op in steady state, want 0", avg)
	}
	net.Release(ts)
}

// TestSoftmaxCrossEntropyBatchIntoMatches pins the Into loss to the
// per-row tensor.Softmax definition bit-for-bit, stale destination
// included.
func TestSoftmaxCrossEntropyBatchIntoMatches(t *testing.T) {
	r := rng.New(81)
	logits := tensor.New(5, 7)
	for i := range logits.Data {
		logits.Data[i] = r.NormFloat32() * 3
	}
	labels := []int{0, 6, 3, 3, 1}
	wantLoss, wantGrad := 0.0, tensor.New(5, 7)
	for b, label := range labels {
		p := tensor.Softmax(tensor.FromSlice(logits.Data[b*7:(b+1)*7], 7))
		wantLoss += -math.Log(math.Max(float64(p.Data[label]), 1e-12))
		p.Data[label] -= 1
		copy(wantGrad.Data[b*7:(b+1)*7], p.Data)
	}
	grad := tensor.New(5, 7)
	for i := range grad.Data {
		grad.Data[i] = 42 // stale contents must vanish
	}
	gotLoss := SoftmaxCrossEntropyBatchInto(logits, labels, grad)
	if gotLoss != wantLoss {
		t.Fatalf("loss %v, want %v", gotLoss, wantLoss)
	}
	for i := range wantGrad.Data {
		if grad.Data[i] != wantGrad.Data[i] {
			t.Fatalf("grad %d = %v, want %v", i, grad.Data[i], wantGrad.Data[i])
		}
	}
}

// TestTrainScratchPoolRecycles pins the acquire/release free-list
// contract: an arena a training fit released is the next one handed
// out.
func TestTrainScratchPoolRecycles(t *testing.T) {
	net := trainCases()[0].build()
	ts := net.AcquireScratch()
	net.Release(ts)
	if got := net.AcquireScratch(); got != ts {
		t.Fatal("released Scratch must be recycled by the next acquire")
	}
}
