package snn

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// TrainOptions configures supervised training on a static image dataset.
type TrainOptions struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	Encoder   encoding.Encoder
	Seed      uint64
	// ClipNorm, when positive, rescales the full gradient so its global
	// L2 norm does not exceed this value (stabilizes high-Vth training).
	ClipNorm float64
	// OnEpoch, when set, is invoked after every epoch.
	OnEpoch func(epoch int, meanLoss float64)
}

// clipGradients rescales grads in place to a global L2 norm of at most
// clip. No-op when clip <= 0.
func clipGradients(grads []*tensor.Tensor, clip float64) {
	if clip <= 0 {
		return
	}
	total := 0.0
	for _, g := range grads {
		n := g.L2Norm()
		total += n * n
	}
	norm := math.Sqrt(total)
	if norm <= clip {
		return
	}
	s := float32(clip / norm)
	for _, g := range grads {
		g.Scale(s)
	}
}

// minibatch runs one training minibatch against the fit's arena —
// zero the gradients, forward, loss, BPTT, clip, optimizer step — and
// returns the summed loss.
func minibatch(n *Network, s *Scratch, params, grads []*tensor.Tensor, samples [][]*tensor.Tensor, labels []int, opt TrainOptions) float64 {
	n.ZeroGrads()
	loss := n.TrainStepScratch(samples, labels, s)
	clipGradients(grads, opt.ClipNorm)
	opt.Optimizer.Step(params, grads, 1/float32(len(samples)))
	return loss
}

// Train fits the network on a static image dataset with BPTT, one
// batched BPTT pass per minibatch against an arena acquired for the
// whole fit, so the per-minibatch steady state (stacking, forward,
// loss, backward, clipping, optimizer step) allocates no tensors; only
// the per-sample encoding still does.
func Train(n *Network, train *dataset.Set, opt TrainOptions) {
	if opt.BatchSize <= 0 {
		opt.BatchSize = 16
	}
	s := n.AcquireScratch()
	defer n.Release(s)
	params, grads := n.Params(), n.Grads()
	r := rng.New(opt.Seed)
	idx := make([]int, train.Len())
	for i := range idx {
		idx[i] = i
	}
	samples := make([][]*tensor.Tensor, 0, opt.BatchSize)
	labels := make([]int, 0, opt.BatchSize)
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		totalLoss := 0.0
		for b := 0; b < len(idx); b += opt.BatchSize {
			end := b + opt.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			samples, labels = samples[:0], labels[:0]
			for _, i := range idx[b:end] {
				sample := train.Samples[i]
				samples = append(samples, opt.Encoder.Encode(sample.Image, n.Cfg.Steps, r))
				labels = append(labels, sample.Label)
			}
			totalLoss += minibatch(n, s, params, grads, samples, labels, opt)
		}
		if opt.OnEpoch != nil {
			opt.OnEpoch(epoch, totalLoss/float64(len(idx)))
		}
	}
}

// TrainFrames fits the network on a pre-voxelized frame dataset (the DVS
// path): samples[i] is the frame sequence, labels[i] the class. Like
// Train, the whole fit runs against one arena, making the steady-state
// minibatch cycle allocation-free.
func TrainFrames(n *Network, samples [][]*tensor.Tensor, labels []int, opt TrainOptions) {
	if opt.BatchSize <= 0 {
		opt.BatchSize = 8
	}
	s := n.AcquireScratch()
	defer n.Release(s)
	params, grads := n.Params(), n.Grads()
	r := rng.New(opt.Seed)
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	batch := make([][]*tensor.Tensor, 0, opt.BatchSize)
	blabels := make([]int, 0, opt.BatchSize)
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		totalLoss := 0.0
		for b := 0; b < len(idx); b += opt.BatchSize {
			end := b + opt.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch, blabels = batch[:0], blabels[:0]
			for _, i := range idx[b:end] {
				batch = append(batch, samples[i])
				blabels = append(blabels, labels[i])
			}
			totalLoss += minibatch(n, s, params, grads, batch, blabels, opt)
		}
		if opt.OnEpoch != nil {
			opt.OnEpoch(epoch, totalLoss/float64(len(idx)))
		}
	}
}

// evalChunk is the number of samples evaluated per batched forward:
// large enough to amortize per-batch weight transposes, small enough to
// keep the stacked frames cache-resident.
const evalChunk = 32

// Accuracy evaluates classification accuracy on a static image dataset.
// Encoding randomness is reseeded per call so repeated evaluations of
// the same model agree. Samples are evaluated in batched chunks; the
// encoding stream and the per-sample predictions are identical to the
// per-sample path.
func Accuracy(n *Network, test *dataset.Set, enc encoding.Encoder, seed uint64) float64 {
	if test.Len() == 0 {
		return 0
	}
	r := rng.New(seed)
	correct := 0
	samples := make([][]*tensor.Tensor, 0, evalChunk)
	labels := make([]int, 0, evalChunk)
	flush := func() {
		for i, p := range n.PredictBatch(samples) {
			if p == labels[i] {
				correct++
			}
		}
		samples, labels = samples[:0], labels[:0]
	}
	for _, s := range test.Samples {
		samples = append(samples, enc.Encode(s.Image, n.Cfg.Steps, r))
		labels = append(labels, s.Label)
		if len(samples) == evalChunk {
			flush()
		}
	}
	if len(samples) > 0 {
		flush()
	}
	return float64(correct) / float64(test.Len())
}

// AccuracyFrames evaluates accuracy on pre-voxelized frame samples,
// batching chunks through the network.
func AccuracyFrames(n *Network, samples [][]*tensor.Tensor, labels []int) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for b := 0; b < len(samples); b += evalChunk {
		end := b + evalChunk
		if end > len(samples) {
			end = len(samples)
		}
		for i, p := range n.PredictBatch(samples[b:end]) {
			if p == labels[b+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(samples))
}

// AccuracyParallel evaluates accuracy like Accuracy but fans batched
// chunks out over workers goroutines (<= 0 takes the shared kernel
// pool's budget, i.e. GOMAXPROCS unless tensor.SetWorkers overrode it),
// each with a weight-sharing evaluation clone. The result is
// deterministic given seed and does not depend on the worker count: the
// encoding RNG is split per sample index up front and chunk boundaries
// are fixed. (It differs from Accuracy's stream for the same seed.)
func AccuracyParallel(n *Network, test *dataset.Set, enc encoding.Encoder, seed uint64, workers int) float64 {
	if test.Len() == 0 {
		return 0
	}
	if workers <= 0 {
		workers = tensor.Workers()
	}
	chunks := (test.Len() + evalChunk - 1) / evalChunk
	if workers > chunks {
		workers = chunks
	}
	// Pre-split one RNG per sample so parallel order cannot matter.
	base := rng.New(seed)
	rngs := make([]*rng.RNG, test.Len())
	for i := range rngs {
		rngs[i] = base.Split()
	}
	var correct int64
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clone := n.CloneArchitecture()
			for ci := range work {
				lo := ci * evalChunk
				hi := lo + evalChunk
				if hi > test.Len() {
					hi = test.Len()
				}
				samples := make([][]*tensor.Tensor, 0, hi-lo)
				labels := make([]int, 0, hi-lo)
				for i := lo; i < hi; i++ {
					s := test.Samples[i]
					samples = append(samples, enc.Encode(s.Image, clone.Cfg.Steps, rngs[i]))
					labels = append(labels, s.Label)
				}
				for i, p := range clone.PredictBatch(samples) {
					if p == labels[i] {
						atomic.AddInt64(&correct, 1)
					}
				}
			}
		}()
	}
	for ci := 0; ci < chunks; ci++ {
		work <- ci
	}
	close(work)
	wg.Wait()
	return float64(correct) / float64(test.Len())
}

// InputGradient computes dL/dframe_t for a sample, the quantity attacks
// need: a batch of one through InputGradientBatch's pass. The returned
// per-step gradients have the input frame shape.
func InputGradient(n *Network, frames []*tensor.Tensor, label int) []*tensor.Tensor {
	grads := inputGradients(n, [][]*tensor.Tensor{frames}, []int{label})
	for _, g := range grads {
		g.Shape = g.Shape[1:]
	}
	return grads
}

// InputGradientBatch computes dL/dframe_t for a batch of samples in one
// BPTT pass — the attack-crafting hot path. frames[t] is (B, sample
// shape...); labels[b] is the loss label of sample b. The returned
// grads[t] is the batched gradient at step t.
func InputGradientBatch(n *Network, frames []*tensor.Tensor, labels []int) []*tensor.Tensor {
	batch := frames[0].Shape[0]
	per := frames[0].Len() / batch
	samples := make([][]*tensor.Tensor, batch)
	for b := range samples {
		samples[b] = make([]*tensor.Tensor, len(frames))
		for t, f := range frames {
			samples[b][t] = tensor.FromSlice(f.Data[b*per:(b+1)*per], f.Shape[1:]...)
		}
	}
	return inputGradients(n, samples, labels)
}

// inputGradients runs the input-gradient pass on a weight-sharing
// evaluation clone, so that (a) dropout stays disabled even though the
// pass is a training-mode forward, and (b) the caller's network keeps
// clean statistics and zero gradients. It returns fresh copies of the
// per-step gradients.
func inputGradients(n *Network, samples [][]*tensor.Tensor, labels []int) []*tensor.Tensor {
	clone := n.CloneArchitecture()
	s := clone.AcquireScratch()
	defer clone.Release(s)
	logits := clone.forwardPass(s, samples, true)
	_, grad := s.lossGrad(logits, labels)
	clone.backwardPass(grad, s, true)
	grads := make([]*tensor.Tensor, n.Cfg.Steps)
	for t := range grads {
		grads[t] = s.stepGrad(t).Clone()
	}
	return grads
}

// Calibrate runs the network in inference mode over calibration
// samples, one at a time, to populate LIF spike/membrane statistics
// (used by the approximation-level equation). Statistics are reset
// first. Calibration measures the FP32 dynamics whatever the network's
// serving tier.
func Calibrate(n *Network, frames [][]*tensor.Tensor) {
	n.ResetStats()
	if n.tier == TierINT8 {
		n.setInt8(false)
		defer n.setInt8(true)
	}
	s := n.AcquireScratch()
	defer n.Release(s)
	for _, f := range frames {
		s.one[0] = f
		n.forwardPass(s, s.one[:], false)
	}
}
