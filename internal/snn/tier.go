package snn

import (
	"fmt"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// PrecisionTier selects the numeric path inference runs on. The serve
// tier exposes it per session: exact FP32 for clients that need the
// reference numerics, quantized INT8 for clients trading a bounded
// accuracy delta for cheaper integer compute (the paper's
// precision-scaling axis, now as a real compute path instead of fake
// quantization).
type PrecisionTier int

const (
	// TierFP32 is the exact float32 path — the default.
	TierFP32 PrecisionTier = iota
	// TierINT8 runs weighted layers on per-channel int8 panels with
	// int32 accumulation (tensor.MatMulInt8Into). Requires
	// BuildInt8Panels first.
	TierINT8
)

// String returns the wire/flag spelling of the tier.
func (t PrecisionTier) String() string {
	switch t {
	case TierFP32:
		return "fp32"
	case TierINT8:
		return "int8"
	default:
		return fmt.Sprintf("PrecisionTier(%d)", int(t))
	}
}

// ParseTier converts a flag string such as "int8" to a PrecisionTier.
func ParseTier(s string) (PrecisionTier, error) {
	switch s {
	case "fp32", "FP32":
		return TierFP32, nil
	case "int8", "INT8":
		return TierINT8, nil
	}
	return TierFP32, fmt.Errorf("snn: unknown precision tier %q", s)
}

// BuildInt8Panels quantizes every weighted layer's effective (mask-
// applied) weights to per-channel int8 panels. It is a cold operation:
// call it once at load or hot-swap time, after weights and prune masks
// are final — the hot path only ever reads the finished panels
// (mutating W or Mask afterwards leaves the panels stale until the next
// call). Clones made by CloneArchitecture share the panels read-only.
func (n *Network) BuildInt8Panels() error {
	for i, l := range n.Layers {
		switch v := l.(type) {
		case *Conv2D:
			eff := v.W
			if v.Mask != nil {
				eff = v.W.Clone()
				eff.Mul(v.Mask)
			}
			p, err := quant.QuantizePerChannel(eff, v.OutC)
			if err != nil {
				return fmt.Errorf("snn: layer %d (conv2d): %w", i, err)
			}
			v.panel = p
		case *Dense:
			eff := v.W
			if v.Mask != nil {
				eff = v.W.Clone()
				eff.Mul(v.Mask)
			}
			p, err := quant.QuantizePerChannel(eff, v.Out)
			if err != nil {
				return fmt.Errorf("snn: layer %d (dense): %w", i, err)
			}
			v.panel = p
		}
	}
	return nil
}

// SetTier switches the network's inference tier. TierINT8 requires
// BuildInt8Panels to have run (and to be re-run after any weight or
// mask mutation). Training, input gradients and Calibrate always run
// FP32; the tier governs the inference passes that Predict,
// PredictBatch and the serve/stream tiers ride.
func (n *Network) SetTier(t PrecisionTier) error {
	if t == TierINT8 {
		for i, l := range n.Layers {
			switch v := l.(type) {
			case *Conv2D:
				if v.panel == nil {
					return fmt.Errorf("snn: SetTier(int8): layer %d (conv2d) has no panel; call BuildInt8Panels first", i)
				}
			case *Dense:
				if v.panel == nil {
					return fmt.Errorf("snn: SetTier(int8): layer %d (dense) has no panel; call BuildInt8Panels first", i)
				}
			}
		}
	}
	n.tier = t
	n.setInt8(t == TierINT8)
	return nil
}

// setInt8 flips every weighted layer's int8 latch.
func (n *Network) setInt8(use bool) {
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Conv2D:
			v.useInt8 = use
		case *Dense:
			v.useInt8 = use
		}
	}
}

// Tier returns the network's current inference tier.
func (n *Network) Tier() PrecisionTier { return n.tier }

// forwardInt8 is Conv2D's quantized forward: the same im2row lowering
// and scatter/bias epilogue as the rows-orient FP32 path, with the GEMM
// swapped for the int8 kernel against the prebuilt panel (which already
// carries the prune mask). Always rows-orient: per-row activation
// quantization is what makes the result batch-shape invariant.
func (c *Conv2D) forwardInt8(x *tensor.Tensor, s *Scratch, li int, out *tensor.Tensor) *tensor.Tensor {
	g := c.Geom
	b := x.Shape[0]
	n := g.OutH() * g.OutW()
	ckk := g.InC * g.KH * g.KW
	chw := g.InC * g.InH * g.InW
	rows := s.buf2(li, slotLow, b*n, ckk)
	for bi := 0; bi < b; bi++ {
		sample := s.view3(li, slotInView, x.Data[bi*chw:(bi+1)*chw], g.InC, g.InH, g.InW)
		tensor.ConvInt8Into(rows.Data, bi*n, sample, g)
	}
	outT := s.buf2(li, slotGemm, b*n, c.OutC)
	tensor.MatMulInt8Into(outT.Data, rows.Data, b*n, ckk, c.panel.Codes, c.panel.Steps, c.OutC, &c.i8)
	c.scatterRowsBias(out, outT, b, n)
	return out
}
