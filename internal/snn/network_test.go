package snn

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func tinyTrainSet(n int, seed uint64) *dataset.Set {
	cfg := dataset.DefaultSynthConfig()
	cfg.H, cfg.W = 12, 12
	return dataset.GenerateSynth(n, cfg, seed)
}

// An SNN trained for a couple of epochs on the synthetic digits must beat
// chance by a wide margin. This is the substrate's core end-to-end test.
func TestTrainLearnsDigits(t *testing.T) {
	r := rng.New(10)
	cfg := DefaultConfig(0.5, 6)
	net := MNISTNet(cfg, 1, 12, 12, true, r)
	train := tinyTrainSet(300, 1)
	test := tinyTrainSet(100, 2)

	Train(net, train, TrainOptions{
		Epochs:    3,
		BatchSize: 16,
		Optimizer: NewAdam(3e-3),
		Encoder:   encoding.Direct{},
		Seed:      3,
	})
	acc := Accuracy(net, test, encoding.Direct{}, 4)
	if acc < 0.5 {
		t.Fatalf("trained accuracy %.2f, want > 0.5 (chance is 0.1)", acc)
	}
}

func TestTrainWithRateEncoding(t *testing.T) {
	r := rng.New(11)
	cfg := DefaultConfig(0.5, 8)
	net := DenseNet(cfg, 12*12, 64, 10, r)
	train := tinyTrainSet(300, 5)
	test := tinyTrainSet(100, 6)
	Train(net, train, TrainOptions{
		Epochs:    4,
		BatchSize: 16,
		Optimizer: NewAdam(2e-3),
		Encoder:   encoding.Rate{},
		Seed:      7,
	})
	acc := Accuracy(net, test, encoding.Rate{}, 8)
	if acc < 0.4 {
		t.Fatalf("rate-encoded accuracy %.2f, want > 0.4", acc)
	}
}

func TestAccuracyDeterministicGivenSeed(t *testing.T) {
	r := rng.New(12)
	cfg := DefaultConfig(0.5, 4)
	net := DenseNet(cfg, 144, 32, 10, r)
	test := tinyTrainSet(50, 9)
	a := Accuracy(net, test, encoding.Rate{}, 42)
	b := Accuracy(net, test, encoding.Rate{}, 42)
	if a != b {
		t.Fatalf("same seed, different accuracy: %v vs %v", a, b)
	}
}

func TestPredictShapeIndependence(t *testing.T) {
	// A single static frame must be accepted (repeats across steps).
	r := rng.New(13)
	cfg := DefaultConfig(0.5, 5)
	net := MNISTNet(cfg, 1, 12, 12, true, r)
	img := tensor.New(1, 12, 12)
	p := net.Predict([]*tensor.Tensor{img})
	if p < 0 || p > 9 {
		t.Fatalf("prediction %d out of range", p)
	}
}

func TestForwardPanicsOnEmptyInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r := rng.New(14)
	net := DenseNet(DefaultConfig(1, 4), 4, 8, 2, r)
	net.Predict(nil)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := rng.New(15)
	cfg := DefaultConfig(0.7, 6)
	a := MNISTNet(cfg, 1, 12, 12, true, r)
	test := tinyTrainSet(30, 16)

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := MNISTNet(DefaultConfig(0.1, 2), 1, 12, 12, true, rng.New(99))
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if b.Cfg.VTh != 0.7 || b.Cfg.Steps != 6 {
		t.Fatalf("config not restored: %+v", b.Cfg)
	}
	accA := Accuracy(a, test, encoding.Direct{}, 1)
	accB := Accuracy(b, test, encoding.Direct{}, 1)
	if accA != accB {
		t.Fatalf("loaded model behaves differently: %v vs %v", accA, accB)
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	r := rng.New(17)
	a := DenseNet(DefaultConfig(1, 4), 16, 8, 4, r)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := DenseNet(DefaultConfig(1, 4), 16, 12, 4, rng.New(18))
	if err := b.Load(&buf); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestSaveLoadFile(t *testing.T) {
	r := rng.New(19)
	a := DenseNet(DefaultConfig(1, 4), 16, 8, 4, r)
	path := t.TempDir() + "/model.bin"
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	b := DenseNet(DefaultConfig(1, 4), 16, 8, 4, rng.New(20))
	if err := b.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	for i, p := range a.Params() {
		q := b.Params()[i]
		for j := range p.Data {
			if p.Data[j] != q.Data[j] {
				t.Fatal("weights differ after file round-trip")
			}
		}
	}
}

func TestCloneArchitectureSharesWeights(t *testing.T) {
	r := rng.New(21)
	a := MNISTNet(DefaultConfig(0.5, 4), 1, 12, 12, true, r)
	b := a.CloneArchitecture()
	// Same weight tensors by pointer.
	if a.Layers[0].(*Conv2D).W != b.Layers[0].(*Conv2D).W {
		t.Fatal("clone must share weight tensors")
	}
	// Independent state: running b must not disturb a's caches.
	img := tensor.New(1, 12, 12)
	img.Fill(0.5)
	frames := []*tensor.Tensor{img}
	pa := a.Predict(frames)
	pb := b.Predict(frames)
	if pa != pb {
		t.Fatalf("shared-weight clone predicts differently: %d vs %d", pa, pb)
	}
}

func TestDeepCloneIndependent(t *testing.T) {
	r := rng.New(22)
	a := DenseNet(DefaultConfig(0.5, 4), 16, 8, 4, r)
	b := a.DeepClone()
	b.Layers[1].(*Dense).W.Data[0] += 100
	if a.Layers[1].(*Dense).W.Data[0] == b.Layers[1].(*Dense).W.Data[0] {
		t.Fatal("deep clone aliases weights")
	}
}

func TestSetVTh(t *testing.T) {
	r := rng.New(23)
	n := MNISTNet(DefaultConfig(0.5, 4), 1, 12, 12, true, r)
	n.SetVTh(1.5)
	if n.Cfg.VTh != 1.5 {
		t.Fatal("config VTh not updated")
	}
	for _, l := range n.LIFLayers() {
		if l.VTh != 1.5 {
			t.Fatal("LIF VTh not updated")
		}
	}
}

func TestInputGradientLeavesParamsClean(t *testing.T) {
	r := rng.New(24)
	n := DenseNet(DefaultConfig(0.5, 4), 16, 8, 4, r)
	img := tensor.New(16)
	img.Fill(0.7)
	frames := []*tensor.Tensor{img, img, img, img}
	grads := InputGradient(n, frames, 1)
	if len(grads) != 4 {
		t.Fatalf("got %d frame gradients", len(grads))
	}
	for _, g := range n.Grads() {
		for _, v := range g.Data {
			if v != 0 {
				t.Fatal("InputGradient must zero parameter gradients")
			}
		}
	}
}

func TestCalibratePopulatesStats(t *testing.T) {
	r := rng.New(25)
	n := DenseNet(DefaultConfig(0.2, 6), 16, 8, 4, r)
	img := tensor.New(16)
	img.Fill(1)
	Calibrate(n, [][]*tensor.Tensor{{img}, {img}})
	lifs := n.LIFLayers()
	if len(lifs) == 0 {
		t.Fatal("no LIF layers")
	}
	if lifs[0].StatSteps != 12 { // 2 samples × 6 steps
		t.Fatalf("StatSteps = %d, want 12", lifs[0].StatSteps)
	}
	if lifs[0].StatSpikes == 0 {
		t.Fatal("expected spikes with low threshold and saturated input")
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	r := rng.New(26)
	d := NewDropout(0.5, r)
	x := tensor.New(1, 1000)
	x.Fill(1)
	s := passScratch()
	// Eval: identity.
	y := d.forward(x, s, 0, 0, false)
	for _, v := range y.Data {
		if v != 1 {
			t.Fatal("dropout must be identity in eval mode")
		}
	}
	// Train: ~half dropped, survivors scaled by 2.
	s.begin()
	y = d.forward(x, s, 0, 0, true).Clone()
	zeros, twos := 0, 0
	for _, v := range y.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 350 || zeros > 650 {
		t.Fatalf("dropout rate off: %d/1000 dropped", zeros)
	}
	// Mask persists across steps within one pass.
	y2 := d.forward(x, s, 0, 1, true)
	for i := range y.Data {
		if y.Data[i] != y2.Data[i] {
			t.Fatal("dropout mask must persist across time steps")
		}
	}
	// And is redrawn for the next pass.
	s.begin()
	y3 := d.forward(x, s, 0, 0, true)
	same := true
	for i := range y.Data {
		if y.Data[i] != y3.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("dropout mask must be redrawn every pass")
	}
}

func TestSGDAndAdamReduceLoss(t *testing.T) {
	for name, opt := range map[string]Optimizer{
		"sgd":  NewSGD(0.05, 0.9),
		"adam": NewAdam(0.01),
	} {
		r := rng.New(27)
		n := DenseNet(DefaultConfig(0.5, 4), 16, 16, 4, r)
		img := tensor.New(16)
		for i := range img.Data {
			img.Data[i] = r.Float32()
		}
		samples := [][]*tensor.Tensor{{img}}
		labels := []int{2}
		s := n.AcquireScratch()
		first, last := 0.0, 0.0
		for it := 0; it < 40; it++ {
			n.ZeroGrads()
			loss := n.TrainStepScratch(samples, labels, s)
			if it == 0 {
				first = loss
			}
			last = loss
			opt.Step(n.Params(), n.Grads(), 1)
		}
		n.Release(s)
		if last >= first {
			t.Fatalf("%s: loss did not decrease (%.4f -> %.4f)", name, first, last)
		}
	}
}

func TestTrainFramesLearns(t *testing.T) {
	// Two trivially separable "gesture" classes: activity on the left
	// half vs the right half.
	r := rng.New(28)
	cfg := DefaultConfig(0.5, 4)
	net := DenseNet(cfg, 2*4*4, 16, 2, r)
	var samples [][]*tensor.Tensor
	var labels []int
	gen := rng.New(29)
	for i := 0; i < 60; i++ {
		label := i % 2
		frames := make([]*tensor.Tensor, 4)
		for t := range frames {
			f := tensor.New(2, 4, 4)
			for y := 0; y < 4; y++ {
				for x := 0; x < 2; x++ {
					col := x
					if label == 1 {
						col = x + 2
					}
					if gen.Bernoulli(0.8) {
						f.Set(1, 0, y, col)
					}
				}
			}
			frames[t] = f
		}
		samples = append(samples, frames)
		labels = append(labels, label)
	}
	TrainFrames(net, samples, labels, TrainOptions{
		Epochs:    5,
		BatchSize: 8,
		Optimizer: NewAdam(5e-3),
		Seed:      30,
	})
	acc := AccuracyFrames(net, samples, labels)
	if acc < 0.8 {
		t.Fatalf("frame training accuracy %.2f, want > 0.8", acc)
	}
}
