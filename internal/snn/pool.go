package snn

import (
	"repro/internal/rng"
	"repro/internal/tensor"
)

// AvgPool is non-overlapping average pooling with window K.
type AvgPool struct {
	K int
}

// NewAvgPool returns an average-pooling layer with window k.
func NewAvgPool(k int) *AvgPool { return &AvgPool{K: k} }

// Name implements Layer.
func (p *AvgPool) Name() string { return "avgpool" }

// poolDims records a (B,C,H,W) input's per-sample dims for backward and
// returns them with the pooled output size.
func poolDims(x *tensor.Tensor, s *Scratch, li, k int) (b, c, h, w, oh, ow int) {
	b, c, h, w = x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	dims := s.intBuf(li, slotDims, 3)
	dims[0], dims[1], dims[2] = c, h, w
	return b, c, h, w, (h + k - 1) / k, (w + k - 1) / k
}

// forward implements Layer: samples pool independently into one reused
// output tensor through cached sample views.
//
//axsnn:hotpath
func (p *AvgPool) forward(x *tensor.Tensor, s *Scratch, li, t int, train bool) *tensor.Tensor {
	b, c, h, w, oh, ow := poolDims(x, s, li, p.K)
	out := s.buf4(li, slotOut, b, c, oh, ow)
	for bi := 0; bi < b; bi++ {
		sv := s.view3(li, slotInView, x.Data[bi*c*h*w:(bi+1)*c*h*w], c, h, w)
		dv := s.view3(li, slotOutView, out.Data[bi*c*oh*ow:(bi+1)*c*oh*ow], c, oh, ow)
		tensor.AvgPool2DInto(dv, sv, p.K)
	}
	return out
}

// backward implements Layer: the gradient spreads evenly over each
// window, scattered into one reused input-shaped tensor.
//
//axsnn:hotpath
func (p *AvgPool) backward(grad *tensor.Tensor, s *Scratch, li, t int, needDX bool) *tensor.Tensor {
	if !needDX {
		return nil
	}
	dims := s.intBuf(li, slotDims, 3)
	c, h, w := dims[0], dims[1], dims[2]
	batch := grad.Shape[0]
	oh, ow := grad.Shape[2], grad.Shape[3]
	out := s.buf4(li, slotGrad, batch, c, h, w)
	for bi := 0; bi < batch; bi++ {
		gv := s.view3(li, slotInView, grad.Data[bi*c*oh*ow:(bi+1)*c*oh*ow], c, oh, ow)
		dv := s.view3(li, slotOutView, out.Data[bi*c*h*w:(bi+1)*c*h*w], c, h, w)
		tensor.AvgPool2DBackwardInto(dv, gv, p.K)
	}
	return out
}

// MaxPool is non-overlapping max pooling with window K.
type MaxPool struct {
	K int
}

// NewMaxPool returns a max-pooling layer with window k.
func NewMaxPool(k int) *MaxPool { return &MaxPool{K: k} }

// Name implements Layer.
func (p *MaxPool) Name() string { return "maxpool" }

// forward implements Layer. Inference needs no argmax bookkeeping;
// training records the per-sample argmax indices in the step's int
// ring for the backward scatter.
//
//axsnn:hotpath
func (p *MaxPool) forward(x *tensor.Tensor, s *Scratch, li, t int, train bool) *tensor.Tensor {
	b, c, h, w, oh, ow := poolDims(x, s, li, p.K)
	per := c * oh * ow
	out := s.buf4(li, slotOut, b, c, oh, ow)
	var arg []int
	if train {
		arg = s.intBuf(li, at(slotArg, t), b*per)
	}
	for bi := 0; bi < b; bi++ {
		sv := s.view3(li, slotInView, x.Data[bi*c*h*w:(bi+1)*c*h*w], c, h, w)
		dv := s.view3(li, slotOutView, out.Data[bi*per:(bi+1)*per], c, oh, ow)
		if train {
			tensor.MaxPool2DWithArgInto(dv, arg[bi*per:(bi+1)*per], sv, p.K)
		} else {
			tensor.MaxPool2DInto(dv, sv, p.K)
		}
	}
	return out
}

// backward implements Layer: the gradient routes through the step's
// argmax indices into one reused input-shaped tensor.
//
//axsnn:hotpath
func (p *MaxPool) backward(grad *tensor.Tensor, s *Scratch, li, t int, needDX bool) *tensor.Tensor {
	if !needDX {
		return nil
	}
	dims := s.intBuf(li, slotDims, 3)
	c, h, w := dims[0], dims[1], dims[2]
	batch := grad.Shape[0]
	per := grad.Len() / batch
	arg := s.intBuf(li, at(slotArg, t), batch*per)
	out := s.buf4(li, slotGrad, batch, c, h, w)
	for bi := 0; bi < batch; bi++ {
		gv := s.view3(li, slotInView, grad.Data[bi*per:(bi+1)*per], c, grad.Shape[2], grad.Shape[3])
		dv := s.view3(li, slotOutView, out.Data[bi*c*h*w:(bi+1)*c*h*w], c, h, w)
		tensor.MaxPool2DBackwardInto(dv, gv, arg[bi*per:(bi+1)*per])
	}
	return out
}

// Dropout zeroes a random unit subset during training, with inverted
// scaling. The mask is drawn once per pass (on the first training step)
// and reused across time steps, the convention for SNN training; every
// sample of the batch draws its own mask.
type Dropout struct {
	P float32 // drop probability

	r *rng.RNG
}

// NewDropout returns a dropout layer with drop probability p, drawing
// masks from r.
func NewDropout(p float32, r *rng.RNG) *Dropout { return &Dropout{P: p, r: r} }

// Name implements Layer.
func (d *Dropout) Name() string { return "dropout" }

// active reports whether the layer drops units in training passes.
// Evaluation clones carry no RNG, so dropout is a pass-through there
// even in training mode (attack gradient computation).
func (d *Dropout) active() bool { return d.P > 0 && d.r != nil }

// forward implements Layer: the identity in inference; in training the
// pass's mask gates the input into a reused output tensor.
//
//axsnn:hotpath
func (d *Dropout) forward(x *tensor.Tensor, s *Scratch, li, t int, train bool) *tensor.Tensor {
	if !train || !d.active() {
		return x
	}
	mask, fresh := s.onceShape(li, slotMask, x.Shape)
	if fresh {
		inv := 1 / (1 - d.P)
		for i := range mask.Data {
			if d.r.Float32() >= d.P {
				mask.Data[i] = inv
			} else {
				mask.Data[i] = 0
			}
		}
	}
	out := s.bufShape(li, slotOut, x.Shape)
	for i, v := range x.Data {
		out.Data[i] = v * mask.Data[i]
	}
	return out
}

// backward implements Layer: the pass's mask gates the gradient into a
// reused buffer.
//
//axsnn:hotpath
func (d *Dropout) backward(grad *tensor.Tensor, s *Scratch, li, t int, needDX bool) *tensor.Tensor {
	if !needDX {
		return nil
	}
	if !d.active() {
		return grad
	}
	mask := s.bufShape(li, slotMask, grad.Shape)
	out := s.bufShape(li, slotGrad, grad.Shape)
	for i, g := range grad.Data {
		out.Data[i] = g * mask.Data[i]
	}
	return out
}
