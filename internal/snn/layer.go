// Package snn implements the spiking-neural-network substrate: leaky
// integrate-and-fire (LIF) dynamics, convolutional / dense / pooling /
// dropout layers, a network container, and surrogate-gradient
// backpropagation-through-time training.
//
// Execution model: a network processes a batch of samples as T time
// steps; every tensor carries the batch on its leading axis, and a
// single sample is a batch of one. Each layer has exactly one forward
// and one backward, both drawing all working memory from an arena
// (Scratch, arena.go). The forward runs once per step in layer order;
// in training mode it also records the per-step caches its backward
// needs in the arena. The backward then runs T times in *reverse* step
// order against those caches. Every pass opens by clearing the arena's
// per-pass state (membranes, once-per-pass panels), so no state
// outlives a pass. This mirrors how mainstream SNN frameworks
// (SpikingJelly, Norse) unroll BPTT, with the standard simplifications:
// the spike nonlinearity uses a fast-sigmoid surrogate derivative and
// the reset path is detached.
package snn

import (
	"fmt"

	"repro/internal/tensor"
)

// Layer is one stage of the unrolled network. The built-in layers are
// the only implementations.
type Layer interface {
	// Name identifies the layer type for diagnostics/serialization.
	Name() string
	// forward advances the layer one time step over a batch x, drawing
	// its output and working memory from s. li is the layer's position
	// (the arena key) and t the step. train selects the training
	// kernels and records what backward needs for step t; inference
	// leaves no per-step caches.
	forward(x *tensor.Tensor, s *Scratch, li, t int, train bool) *tensor.Tensor
	// backward consumes dL/d(output) of step t and accumulates
	// parameter gradients. It returns dL/d(input), or nil when needDX
	// is false and the layer can skip that work. Steps run in reverse
	// order of the training forward.
	backward(grad *tensor.Tensor, s *Scratch, li, t int, needDX bool) *tensor.Tensor
}

// ParamLayer is a Layer with trainable parameters.
type ParamLayer interface {
	Layer
	Params() []*tensor.Tensor
	Grads() []*tensor.Tensor
}

// LIF is a layer of leaky integrate-and-fire neurons applied elementwise
// to its input current: V ← λV + I; spike where V ≥ Vth; soft reset
// V ← V − Vth·spike.
type LIF struct {
	VTh   float32 // threshold voltage
	Decay float32 // membrane leak λ ∈ (0,1]
	Beta  float32 // surrogate sharpness

	// Calibration statistics used by the approximation-level equation
	// (approx package): accumulated over forward steps until
	// ResetStats, normalized per sample so they are batch-size
	// invariant.
	StatSpikes float64 // total output spikes
	StatVSum   float64 // sum of mean pre-reset membrane potential per step
	StatSteps  int     // forward steps counted
	StatUnits  int     // neurons per step (set on first forward)
}

// NewLIF returns a LIF activation with threshold vth, leak decay and
// surrogate sharpness beta.
func NewLIF(vth, decay, beta float32) *LIF {
	return &LIF{VTh: vth, Decay: decay, Beta: beta}
}

// Name implements Layer.
func (l *LIF) Name() string { return "lif" }

// forward implements Layer: the membrane persists in the arena across
// the steps of a pass (zeroed at pass start); training also records the
// step's pre-reset potential for the surrogate gradient.
//
//axsnn:hotpath
func (l *LIF) forward(x *tensor.Tensor, s *Scratch, li, t int, train bool) *tensor.Tensor {
	batch := x.Shape[0]
	v := s.stateBufShape(li, slotState, x.Shape)
	out := s.bufShape(li, slotOut, x.Shape)
	var spikes float64
	var vSum float64
	for i, inp := range x.Data {
		vv := l.Decay*v.Data[i] + inp
		vSum += float64(vv)
		var o float32
		if vv >= l.VTh {
			o = 1
			spikes++
			vv -= l.VTh
		}
		out.Data[i] = o
		v.Data[i] = vv
	}
	if train {
		// Reconstruct the pre-reset potential from the post state.
		pre := s.bufShape(li, at(slotPre, t), x.Shape)
		for i := range pre.Data {
			pre.Data[i] = v.Data[i] + out.Data[i]*l.VTh
		}
	}
	l.StatSpikes += spikes / float64(batch)
	l.StatVSum += vSum / float64(x.Len())
	l.StatSteps++
	l.StatUnits = x.Len() / batch
	return out
}

// backward implements Layer: dL/dI_t = dL/dS_t · σ'(V_t − Vth) + λ·carry,
// with the reset path detached (standard SNN BPTT practice). The dL/dV
// carry updates in place: dv reads the previous step's carry element
// before overwriting it.
//
//axsnn:hotpath
func (l *LIF) backward(grad *tensor.Tensor, s *Scratch, li, t int, needDX bool) *tensor.Tensor {
	if !needDX {
		return nil
	}
	pre := s.bufShape(li, at(slotPre, t), grad.Shape)
	carry, fresh := s.onceShape(li, slotCarry, grad.Shape)
	for i, g := range grad.Data {
		u := pre.Data[i] - l.VTh
		if u < 0 {
			u = -u
		}
		d := 1 + l.Beta*u
		surr := l.Beta / (d * d)
		dv := g * surr
		if !fresh {
			dv += l.Decay * carry.Data[i]
		}
		carry.Data[i] = dv
	}
	return carry
}

// ResetStats clears the calibration counters.
func (l *LIF) ResetStats() {
	l.StatSpikes, l.StatVSum, l.StatSteps, l.StatUnits = 0, 0, 0, 0
}

// MeanSpikesPerStep returns average spikes emitted per time step.
func (l *LIF) MeanSpikesPerStep() float64 {
	if l.StatSteps == 0 {
		return 0
	}
	return l.StatSpikes / float64(l.StatSteps)
}

// MeanMembrane returns the average pre-reset membrane potential per step.
func (l *LIF) MeanMembrane() float64 {
	if l.StatSteps == 0 {
		return 0
	}
	return l.StatVSum / float64(l.StatSteps)
}

// Flatten reshapes (B, d...) inputs to (B, Πd) vectors.
type Flatten struct{}

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// forward implements Layer: a cached header view over the input data —
// no copy — with the input dims kept for backward.
//
//axsnn:hotpath
func (f *Flatten) forward(x *tensor.Tensor, s *Scratch, li, t int, train bool) *tensor.Tensor {
	copy(s.intBuf(li, slotDims, len(x.Shape)), x.Shape)
	return s.view2(li, slotOutView, x.Data, x.Shape[0], x.Len()/x.Shape[0])
}

// backward implements Layer: the gradient viewed in the recorded input
// shape.
//
//axsnn:hotpath
func (f *Flatten) backward(grad *tensor.Tensor, s *Scratch, li, t int, needDX bool) *tensor.Tensor {
	if !needDX {
		return nil
	}
	return s.viewShape(li, slotGradView, grad.Data, s.ints[slotKey{li, slotDims}])
}

// shapeStr renders a shape for cold panic messages.
//
//axsnn:allow-alloc cold error-path formatting, runs only on misuse
func shapeStr(s []int) string { return fmt.Sprint(s) }
