package snn

import "repro/internal/tensor"

// The training half of the arena pass. A training forwardPass records
// every per-step cache the reverse pass needs in the arena's step rings
// (arena.go); backwardPass then walks the steps in reverse against
// them, accumulating parameter gradients into the layers' gradient
// tensors. Train/TrainFrames run one arena per fit, attack crafting one
// per crafting session on a weight-sharing clone, so a steady-state
// minibatch or input-gradient pass allocates nothing.
//
// Only exact-zero products are skipped anywhere on this path (the
// GEMMs' skip-zero fast paths and the conv weight gradient's
// column-skip kernel), so losses, input gradients and trained weights
// are deterministic at any worker count and pinned bit for bit by the
// golden records in compute_golden_test.go.

// paramFloor is the index of the lowest parameter layer: layers at or
// below it need no input gradient unless the caller wants one.
func (n *Network) paramFloor() int {
	for i, l := range n.Layers {
		if _, ok := l.(ParamLayer); ok {
			return i
		}
	}
	return len(n.Layers)
}

// backwardPass completes BPTT after a training forwardPass,
// accumulating parameter gradients. logits = Σ_t out_t, so every
// reverse step receives the same top gradient. With wantInput each
// step's input gradient is copied to the arena's per-step ring
// (stepGrad); otherwise layers below the lowest parameter layer skip
// their input-gradient work entirely.
//
//axsnn:hotpath
func (n *Network) backwardPass(gradLogits *tensor.Tensor, s *Scratch, wantInput bool) {
	floor := n.paramFloor()
	for t := n.Cfg.Steps - 1; t >= 0; t-- {
		g := gradLogits
		for li := len(n.Layers) - 1; li >= 0; li-- {
			g = n.Layers[li].backward(g, s, li, t, wantInput || li > floor)
			if g == nil {
				break
			}
		}
		if wantInput {
			copy(s.bufShape(netLayer, at(slotGradStep, t), g.Shape).Data, g.Data)
		}
	}
}

// stepGrad returns the input gradient of step t recorded by the last
// backwardPass with wantInput.
func (s *Scratch) stepGrad(t int) *tensor.Tensor {
	return s.entry(netLayer, at(slotGradStep, t)).t
}

// lossGrad computes the summed softmax cross-entropy of the logits
// into the arena's dL/dlogits buffer.
func (s *Scratch) lossGrad(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	grad := s.bufShape(netLayer, slotLossGrad, logits.Shape)
	return SoftmaxCrossEntropyBatchInto(logits, labels, grad), grad
}

// TrainStepScratch runs one training minibatch against the arena —
// training-mode forward, softmax cross-entropy, BPTT gradient
// accumulation — and returns the summed loss. samples[b] is sample b's
// frame sequence, labels[b] its class. Gradients accumulate into the
// network's gradient tensors (the caller zeroes and consumes them); in
// the steady state the step performs zero allocations.
func (n *Network) TrainStepScratch(samples [][]*tensor.Tensor, labels []int, s *Scratch) float64 {
	logits := n.forwardPass(s, samples, true)
	loss, grad := s.lossGrad(logits, labels)
	n.backwardPass(grad, s, false)
	return loss
}

// InputGradSumScratch computes Σ_t dL/dframe_t for a batch in one
// arena-backed BPTT pass — the attack-crafting hot path. samples[b] is
// sample b's frame sequence, labels[b] its loss label. The returned
// (B, sample shape...) tensor lives in the arena and is valid until its
// next pass; the per-step terms are summed in ascending step order.
// Callers run this on a weight-sharing CloneArchitecture clone, like
// InputGradientBatch; the clone's parameter gradients are zeroed first
// so its state stays bounded.
func (n *Network) InputGradSumScratch(samples [][]*tensor.Tensor, labels []int, s *Scratch) *tensor.Tensor {
	n.ZeroGrads()
	logits := n.forwardPass(s, samples, true)
	_, grad := s.lossGrad(logits, labels)
	n.backwardPass(grad, s, true)
	sum := s.bufShape(netLayer, slotGradSum, s.stepGrad(0).Shape)
	sum.Zero()
	for t := 0; t < n.Cfg.Steps; t++ {
		sum.Add(s.stepGrad(t))
	}
	return sum
}
