package snn

import (
	"fmt"

	"repro/internal/tensor"
)

// Config holds the structural parameters the paper sweeps: threshold
// voltage Vth and number of time steps T, plus the fixed dynamics
// constants.
type Config struct {
	VTh   float32 // LIF threshold voltage
	Steps int     // time steps T per sample
	Decay float32 // membrane leak λ
	Beta  float32 // surrogate sharpness
}

// DefaultConfig returns the dynamics constants used throughout the
// experiments (Vth and Steps are experiment parameters).
func DefaultConfig(vth float32, steps int) Config {
	return Config{VTh: vth, Steps: steps, Decay: 0.9, Beta: 4}
}

// Network is an ordered stack of layers processing samples as
// Config.Steps time steps. The final layer acts as a non-spiking readout:
// its per-step outputs are accumulated into logits.
type Network struct {
	Cfg    Config
	Layers []Layer

	// free parks released arenas (arena.go) for the next AcquireScratch.
	free []*Scratch

	// Inference precision tier (tier.go): FP32 exact or INT8 quantized.
	tier PrecisionTier
}

// NewNetwork assembles a network from layers.
func NewNetwork(cfg Config, layers ...Layer) *Network {
	return &Network{Cfg: cfg, Layers: layers}
}

// ResetStats clears LIF calibration statistics network-wide.
func (n *Network) ResetStats() {
	for _, l := range n.Layers {
		if lif, ok := l.(*LIF); ok {
			lif.ResetStats()
		}
	}
}

// Predict returns the argmax class for one sample (frames[t] is the
// input at step t; if fewer frames than Steps are supplied the last
// frame repeats, and a single frame means a static image presented
// every step). It is a batch of one through the same arena pass as
// PredictBatch, so the steady state allocates nothing.
func (n *Network) Predict(frames []*tensor.Tensor) int {
	s := n.AcquireScratch()
	defer n.Release(s)
	s.one[0] = frames
	return n.forwardPass(s, s.one[:], false).Argmax()
}

// Logits returns a fresh copy of one sample's accumulated readout
// logits, shape (classes) — Predict's pass without the argmax.
func (n *Network) Logits(frames []*tensor.Tensor) *tensor.Tensor {
	s := n.AcquireScratch()
	defer n.Release(s)
	s.one[0] = frames
	out := n.forwardPass(s, s.one[:], false)
	return tensor.FromSlice(append([]float32(nil), out.Data...), out.Len())
}

// PredictBatch returns the argmax class of every sample in one batched
// pass. Frames are stacked step by step into one reused buffer and
// every layer draws its working memory from the network's arena, so
// the steady state allocates nothing but the result slice.
func (n *Network) PredictBatch(samples [][]*tensor.Tensor) []int {
	if len(samples) == 0 {
		return nil
	}
	out := make([]int, len(samples))
	n.PredictBatchInto(samples, out)
	return out
}

// PredictBatchInto is PredictBatch writing the predicted classes into a
// caller-owned slice (len(out) == len(samples)) — the fully
// allocation-free form of the batched hot path.
func (n *Network) PredictBatchInto(samples [][]*tensor.Tensor, out []int) {
	if len(out) != len(samples) {
		panic(fmt.Sprintf("snn: PredictBatchInto out length %d, want %d", len(out), len(samples))) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	if len(samples) == 0 {
		return
	}
	s := n.AcquireScratch()
	defer n.Release(s)
	logits := n.forwardPass(s, samples, false)
	classes := logits.Len() / len(samples)
	for b := range out {
		row := logits.Data[b*classes : (b+1)*classes]
		best, bi := row[0], 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[b] = bi
	}
}

// StackFrames assembles per-sample frame sequences into per-step
// batched tensors: out[t] has shape (B, frame shape...). A sample with
// fewer frames than steps contributes its last frame to the remaining
// steps (the same repeat rule as Predict); a sample with a single frame
// is a static image presented every step.
func StackFrames(samples [][]*tensor.Tensor, steps int) []*tensor.Tensor {
	if len(samples) == 0 {
		panic("snn: StackFrames with no samples")
	}
	batch := len(samples)
	shape := samples[0][0].Shape
	per := samples[0][0].Len()
	out := make([]*tensor.Tensor, steps)
	for t := 0; t < steps; t++ {
		f := tensor.New(append([]int{batch}, shape...)...)
		for b, fr := range samples {
			src := fr[min(t, len(fr)-1)]
			if src.Len() != per {
				panic(fmt.Sprintf("snn: StackFrames sample %d frame size %d, want %d", b, src.Len(), per)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
			}
			copy(f.Data[b*per:(b+1)*per], src.Data)
		}
		out[t] = f
	}
	return out
}

// ParamLayers returns the layers holding trainable parameters.
func (n *Network) ParamLayers() []ParamLayer {
	var out []ParamLayer
	for _, l := range n.Layers {
		if pl, ok := l.(ParamLayer); ok {
			out = append(out, pl)
		}
	}
	return out
}

// Params returns all parameter tensors in a stable order.
func (n *Network) Params() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, pl := range n.ParamLayers() {
		out = append(out, pl.Params()...)
	}
	return out
}

// Grads returns all gradient tensors, aligned with Params.
func (n *Network) Grads() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, pl := range n.ParamLayers() {
		out = append(out, pl.Grads()...)
	}
	return out
}

// ZeroGrads clears every gradient tensor (allocation-free, so arena
// passes can call it per batch).
func (n *Network) ZeroGrads() {
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Conv2D:
			v.dW.Zero()
			v.dB.Zero()
		case *Dense:
			v.dW.Zero()
			v.dB.Zero()
		}
	}
}

// LIFLayers returns the spiking layers in order.
func (n *Network) LIFLayers() []*LIF {
	var out []*LIF
	for _, l := range n.Layers {
		if lif, ok := l.(*LIF); ok {
			out = append(out, lif)
		}
	}
	return out
}

// SetVTh updates the threshold voltage on the config and on every LIF
// layer (used when re-deriving a network at a new structural point).
func (n *Network) SetVTh(vth float32) {
	n.Cfg.VTh = vth
	for _, l := range n.LIFLayers() {
		l.VTh = vth
	}
}

// CloneArchitecture builds a structurally identical network with *shared*
// parameter tensors but independent arenas, statistics and gradient
// buffers. Use it to evaluate one trained model concurrently from
// several goroutines: workers may run passes freely as long as nobody
// writes to the shared weights. The precision tier and any int8 panels carry over:
// panels are shared read-only, scratch is per-clone.
func (n *Network) CloneArchitecture() *Network {
	out := &Network{Cfg: n.Cfg, tier: n.tier}
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Conv2D:
			c := &Conv2D{Geom: v.Geom, OutC: v.OutC, W: v.W, B: v.B, Mask: v.Mask,
				panel: v.panel, useInt8: v.useInt8}
			c.dW = tensor.New(v.dW.Shape...)
			c.dB = tensor.New(v.dB.Shape...)
			out.Layers = append(out.Layers, c)
		case *Dense:
			d := &Dense{In: v.In, Out: v.Out, W: v.W, B: v.B, Mask: v.Mask,
				panel: v.panel, useInt8: v.useInt8}
			d.dW = tensor.New(v.dW.Shape...)
			d.dB = tensor.New(v.dB.Shape...)
			out.Layers = append(out.Layers, d)
		case *LIF:
			out.Layers = append(out.Layers, NewLIF(v.VTh, v.Decay, v.Beta))
		case *AvgPool:
			out.Layers = append(out.Layers, NewAvgPool(v.K))
		case *MaxPool:
			out.Layers = append(out.Layers, NewMaxPool(v.K))
		case *Dropout:
			// Evaluation clones never train; drop the RNG dependency.
			out.Layers = append(out.Layers, &Dropout{P: v.P})
		case *Flatten:
			out.Layers = append(out.Layers, &Flatten{})
		default:
			panic(fmt.Sprintf("snn: CloneArchitecture: unknown layer %T", l)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
		}
	}
	return out
}

// DeepClone builds a fully independent copy, including weights. The
// approx package uses it so pruning/quantization never touches the
// original accurate model.
func (n *Network) DeepClone() *Network {
	out := n.CloneArchitecture()
	for i, l := range out.Layers {
		switch v := l.(type) {
		case *Conv2D:
			src := n.Layers[i].(*Conv2D)
			v.W = src.W.Clone()
			v.B = src.B.Clone()
			if src.Mask != nil {
				v.Mask = src.Mask.Clone()
			}
		case *Dense:
			src := n.Layers[i].(*Dense)
			v.W = src.W.Clone()
			v.B = src.B.Clone()
			if src.Mask != nil {
				v.Mask = src.Mask.Clone()
			}
		}
	}
	// Deep clones exist to be mutated (approx prunes and quantizes
	// them), which would leave shared int8 panels stale: drop them and
	// reset the tier; callers rebuild via BuildInt8Panels when needed.
	out.tier = TierFP32
	for _, l := range out.Layers {
		switch v := l.(type) {
		case *Conv2D:
			v.panel, v.useInt8 = nil, false
		case *Dense:
			v.panel, v.useInt8 = nil, false
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
