package snn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Numerical gradient checking. The network contains spike
// discontinuities, so exact finite-difference agreement is impossible in
// general; we therefore check the *linear* pieces exactly by building
// networks without LIF layers (conv/dense/pool are exactly linear and
// must gradient-check tightly), and check LIF-bearing networks
// directionally (cosine similarity between BPTT and finite differences of
// the smoothed loss must be clearly positive).

// lossOf runs an inference pass and returns the cross-entropy loss.
func lossOf(n *Network, frames []*tensor.Tensor, label int) float64 {
	logits := batchLogits(n, [][]*tensor.Tensor{frames})
	return SoftmaxCrossEntropyBatchInto(logits, []int{label}, tensor.New(logits.Shape...))
}

// bpttOf runs one training pass on n itself, leaving the parameter
// gradients in n's gradient tensors, and returns the per-step input
// gradients.
func bpttOf(n *Network, frames []*tensor.Tensor, label int) []*tensor.Tensor {
	s := n.AcquireScratch()
	defer n.Release(s)
	logits := n.forwardPass(s, [][]*tensor.Tensor{frames}, true)
	_, grad := s.lossGrad(logits, []int{label})
	n.ZeroGrads()
	n.backwardPass(grad, s, true)
	out := make([]*tensor.Tensor, n.Cfg.Steps)
	for t := range out {
		out[t] = s.stepGrad(t).Clone()
	}
	return out
}

func TestLinearNetworkGradCheck(t *testing.T) {
	r := rng.New(1)
	cfg := DefaultConfig(1.0, 3)
	conv := NewConv2D(1, 2, 3, 1, 1, 6, 6, r)
	pool := NewAvgPool(2)
	flat := &Flatten{}
	dense := NewDense(2*3*3, 4, r)
	n := NewNetwork(cfg, conv, pool, flat, dense)

	frames := make([]*tensor.Tensor, cfg.Steps)
	for i := range frames {
		f := tensor.New(1, 6, 6)
		for j := range f.Data {
			f.Data[j] = r.NormFloat32() * 0.5
		}
		frames[i] = f
	}
	label := 2

	// Analytic gradients.
	inGrads := bpttOf(n, frames, label)

	// Check weight gradient of the dense layer numerically.
	const eps = 1e-3
	params := dense.W
	grads := dense.Grads()[0]
	for _, idx := range []int{0, 7, 33, 71} {
		orig := params.Data[idx]
		params.Data[idx] = orig + eps
		lp := lossOf(n, frames, label)
		params.Data[idx] = orig - eps
		lm := lossOf(n, frames, label)
		params.Data[idx] = orig
		num := (lp - lm) / (2 * eps)
		ana := float64(grads.Data[idx])
		if math.Abs(num-ana) > 1e-2*(math.Abs(num)+math.Abs(ana))+1e-4 {
			t.Fatalf("dense dW[%d]: numeric %v vs analytic %v", idx, num, ana)
		}
	}

	// Check conv weight gradient numerically.
	cw := conv.W
	cg := conv.Grads()[0]
	for _, idx := range []int{0, 5, 11} {
		orig := cw.Data[idx]
		cw.Data[idx] = orig + eps
		lp := lossOf(n, frames, label)
		cw.Data[idx] = orig - eps
		lm := lossOf(n, frames, label)
		cw.Data[idx] = orig
		num := (lp - lm) / (2 * eps)
		ana := float64(cg.Data[idx])
		if math.Abs(num-ana) > 1e-2*(math.Abs(num)+math.Abs(ana))+1e-4 {
			t.Fatalf("conv dW[%d]: numeric %v vs analytic %v", idx, num, ana)
		}
	}

	// Check input gradient numerically (frame 1, a few pixels).
	for _, idx := range []int{0, 13, 35} {
		orig := frames[1].Data[idx]
		frames[1].Data[idx] = orig + eps
		lp := lossOf(n, frames, label)
		frames[1].Data[idx] = orig - eps
		lm := lossOf(n, frames, label)
		frames[1].Data[idx] = orig
		num := (lp - lm) / (2 * eps)
		ana := float64(inGrads[1].Data[idx])
		if math.Abs(num-ana) > 1e-2*(math.Abs(num)+math.Abs(ana))+1e-4 {
			t.Fatalf("dX[%d]: numeric %v vs analytic %v", idx, num, ana)
		}
	}
}

// For a spiking network the surrogate gradient must still point uphill:
// perturbing the input along +grad must increase the (smoothed) loss more
// often than not. We test with the deterministic Direct encoding so the
// only nonlinearity is the spike itself.
func TestSpikingGradientAscendsLoss(t *testing.T) {
	r := rng.New(2)
	cfg := DefaultConfig(0.6, 6)
	n := DenseNet(cfg, 16, 24, 4, r)

	improved, tried := 0, 0
	for trial := 0; trial < 30; trial++ {
		img := tensor.New(16)
		for i := range img.Data {
			img.Data[i] = r.Float32()
		}
		frames := make([]*tensor.Tensor, cfg.Steps)
		for i := range frames {
			frames[i] = img.Clone()
		}
		label := trial % 4
		base := lossOf(n, frames, label)

		inGrads := InputGradient(n, frames, label)
		g := tensor.New(16)
		for _, ig := range inGrads {
			g.Add(ig)
		}
		if g.L2Norm() == 0 {
			continue
		}
		tried++
		// Step up the loss.
		step := img.Clone()
		gs := g.Clone()
		gs.Scale(float32(0.25 / g.L2Norm()))
		step.Add(gs)
		for i := range frames {
			frames[i] = step.Clone()
		}
		after := lossOf(n, frames, label)
		if after >= base {
			improved++
		}
	}
	if tried == 0 {
		t.Fatal("no trials had non-zero gradient")
	}
	if float64(improved) < 0.7*float64(tried) {
		t.Fatalf("gradient ascent increased loss in only %d/%d trials", improved, tried)
	}
}
