package snn

import (
	"fmt"

	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over (B,C,H,W) inputs, lowered to matrix
// multiplication. Weights are stored as (OutC, InC·KH·KW) plus a
// per-output-channel bias.
//
// Inference lowers the batch to receptive-field rows (im2row, see
// rowsOrient) or one im2col panel and runs a single GEMM for every
// output position of every sample, spike-sparse rows riding the GEMM
// skip-zero fast path. Training always lowers to the im2col panel — the
// layout the backward kernels consume — and keeps one per step in the
// arena.
type Conv2D struct {
	Geom tensor.Conv2DGeom
	OutC int

	W *tensor.Tensor // (OutC, InC*KH*KW)
	B *tensor.Tensor // (OutC)

	// Mask, when non-nil, zeroes pruned connections after every weight
	// read; the approx package installs it (same shape as W).
	Mask *tensor.Tensor

	dW *tensor.Tensor
	dB *tensor.Tensor

	// Int8 tier state (tier.go): the per-channel panel built cold by
	// Network.BuildInt8Panels (shared read-only between clones), the
	// latch SetTier flips, and the kernel's activation scratch.
	panel   *quant.Int8Panel
	useInt8 bool
	i8      tensor.Int8Scratch
}

// rowsOrient selects the GEMM orientation. When the filter bank is wide
// or the receptive field large, lowering to im2row rows lets
// spike-sparse rows ride the GEMM skip-zero fast path; tiny banks over
// tiny receptive fields keep the classic im2col panel, whose long
// contiguous inner loops beat the sparse win when the per-spike work is
// only a handful of output channels.
func (c *Conv2D) rowsOrient() bool {
	return c.OutC >= 16 || c.Geom.InC*c.Geom.KH*c.Geom.KW >= 32
}

// NewConv2D creates a convolution with Kaiming-uniform-ish Gaussian init.
func NewConv2D(inC, outC, k, stride, pad, inH, inW int, r *rng.RNG) *Conv2D {
	g := tensor.Conv2DGeom{InC: inC, InH: inH, InW: inW, KH: k, KW: k, Stride: stride, Pad: pad}
	c := &Conv2D{Geom: g, OutC: outC}
	fanIn := inC * k * k
	c.W = tensor.New(outC, fanIn)
	sd := sqrt32(2 / float32(fanIn))
	for i := range c.W.Data {
		c.W.Data[i] = r.NormFloat32() * sd
	}
	c.B = tensor.New(outC)
	c.dW = tensor.New(outC, fanIn)
	c.dB = tensor.New(outC)
	return c
}

func sqrt32(x float32) float32 {
	if x <= 0 {
		return 0
	}
	// Newton iterations on float64 then narrow; precision is irrelevant
	// for initialization.
	z := float64(x)
	y := z
	for i := 0; i < 20; i++ {
		y = 0.5 * (y + z/y)
	}
	return float32(y)
}

// Name implements Layer.
func (c *Conv2D) Name() string { return "conv2d" }

// scatterRowsBias de-interleaves a rows-orient GEMM result (B·N, OutC)
// into (B, OutC, N) output layout, adding the channel bias. Shared by
// the FP32 and int8 forwards.
func (c *Conv2D) scatterRowsBias(out, outT *tensor.Tensor, batch, n int) {
	for b := 0; b < batch; b++ {
		for j := 0; j < n; j++ {
			src := outT.Data[(b*n+j)*c.OutC : (b*n+j+1)*c.OutC]
			for oc, v := range src {
				out.Data[(b*c.OutC+oc)*n+j] = v + c.B.Data[oc]
			}
		}
	}
}

// scatterColsBias de-interleaves a cols-orient GEMM result (OutC, B·N)
// into (B, OutC, N) output layout, adding the channel bias.
func (c *Conv2D) scatterColsBias(out, big *tensor.Tensor, batch, n int) {
	for b := 0; b < batch; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			src := big.Data[oc*batch*n+b*n : oc*batch*n+(b+1)*n]
			dst := out.Data[(b*c.OutC+oc)*n : (b*c.OutC+oc+1)*n]
			bias := c.B.Data[oc]
			for j, v := range src {
				dst[j] = v + bias
			}
		}
	}
}

// effW returns the weight matrix with the prune mask applied, derived
// once per pass in the arena, or the raw weights when unmasked.
func (c *Conv2D) effW(s *Scratch, li int) *tensor.Tensor {
	if c.Mask == nil {
		return c.W
	}
	effW, fresh := s.once2(li, slotEffW, c.OutC, c.Geom.InC*c.Geom.KH*c.Geom.KW)
	if fresh {
		copy(effW.Data, c.W.Data)
		effW.Mul(c.Mask)
	}
	return effW
}

// forward implements Layer ((B,C,H,W) → (B,OutC,OutH,OutW)). Inference
// on a wide bank or receptive field lowers to im2row rows against the
// transposed weights (and to the int8 kernel under TierINT8); training
// and narrow banks run one im2col panel GEMM, and training keeps that
// panel in the step's ring for backward.
//
//axsnn:hotpath
func (c *Conv2D) forward(x *tensor.Tensor, s *Scratch, li, t int, train bool) *tensor.Tensor {
	g := c.Geom
	b := x.Shape[0]
	oh, ow := g.OutH(), g.OutW()
	n := oh * ow
	ckk := g.InC * g.KH * g.KW
	chw := g.InC * g.InH * g.InW
	if x.Len() != b*chw {
		panic(fmt.Sprintf("snn: Conv2D input %s does not match geom %+v", shapeStr(x.Shape), g)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	out := s.buf4(li, slotOut, b, c.OutC, oh, ow)
	if !train && c.useInt8 {
		// Quantized tier: the panel already carries the prune mask, so
		// the mask and transpose panels are skipped entirely.
		return c.forwardInt8(x, s, li, out)
	}
	w := c.effW(s, li)
	if !train && c.rowsOrient() {
		wT, fresh := s.once2(li, slotWT, ckk, c.OutC)
		if fresh {
			tensor.TransposeInto(wT, w)
		}
		rows := s.buf2(li, slotLow, b*n, ckk)
		for bi := 0; bi < b; bi++ {
			sample := s.view3(li, slotInView, x.Data[bi*chw:(bi+1)*chw], g.InC, g.InH, g.InW)
			tensor.Im2RowInto(rows.Data[bi*n*ckk:(bi+1)*n*ckk], sample, g)
		}
		// (B·N, CKK) · (CKK, OutC): sparse receptive-field rows skip.
		outT := s.buf2(li, slotGemm, b*n, c.OutC)
		tensor.MatMulInto(outT, rows, wT)
		c.scatterRowsBias(out, outT, b, n)
		return out
	}
	low := slotLow
	if train {
		low = at(slotLow, t)
	}
	cols := s.buf2(li, low, ckk, b*n)
	for bi := 0; bi < b; bi++ {
		sample := s.view3(li, slotInView, x.Data[bi*chw:(bi+1)*chw], g.InC, g.InH, g.InW)
		tensor.Im2ColStripeInto(cols.Data, b*n, bi*n, sample, g)
	}
	// (OutC, CKK) · (CKK, B·N): one panel GEMM for the batch.
	big := s.buf2(li, slotGemm, c.OutC, b*n)
	tensor.MatMulInto(big, w, cols)
	c.scatterColsBias(out, big, b, n)
	return out
}

// backward implements Layer against the step's cached im2col panel. The
// weight-gradient GEMM runs the spike-sparse column-skip kernel — the
// panel is the transposed operand and mostly zero taps, so its dead
// columns skip wholesale (bit-identical accumulation, see
// tensor.MatMulTColSkipAcc). With needDX false (no parameter layer
// below) the input-gradient GEMM and col2im scatter are skipped.
//
//axsnn:hotpath
func (c *Conv2D) backward(grad *tensor.Tensor, s *Scratch, li, t int, needDX bool) *tensor.Tensor {
	g := c.Geom
	batch := grad.Shape[0]
	oh, ow := g.OutH(), g.OutW()
	n := oh * ow
	ckk := g.InC * g.KH * g.KW
	chw := g.InC * g.InH * g.InW
	cols := s.buf2(li, at(slotLow, t), ckk, batch*n)

	// g2B[oc, b·N+j] = grad[b, oc, j]; for a single sample the gradient
	// already is that matrix.
	var g2B *tensor.Tensor
	if batch == 1 {
		g2B = s.view2(li, slotGradView, grad.Data, c.OutC, n)
	} else {
		g2B = s.buf2(li, slotG2B, c.OutC, batch*n)
		for b := 0; b < batch; b++ {
			for oc := 0; oc < c.OutC; oc++ {
				copy(g2B.Data[oc*batch*n+b*n:oc*batch*n+(b+1)*n],
					grad.Data[(b*c.OutC+oc)*n:(b*c.OutC+oc)*n+n])
			}
		}
	}
	for oc := 0; oc < c.OutC; oc++ {
		row := g2B.Data[oc*batch*n : (oc+1)*batch*n]
		var sum float32
		for _, v := range row {
			sum += v
		}
		c.dB.Data[oc] += sum
	}
	// dW += g2B·colsᵀ over the nonzero panel columns only.
	tensor.MatMulTColSkipAcc(c.dW, g2B, cols, s.intBuf(li, slotIdx, batch*n))
	if !needDX {
		return nil
	}
	// dX = col2im(Wᵀ·g2B) per sample.
	dcols := s.buf2(li, slotDCols, ckk, batch*n)
	tensor.TMatMulInto(dcols, c.effW(s, li), g2B)
	dx := s.buf4(li, slotGrad, batch, g.InC, g.InH, g.InW)
	dx.Zero()
	for b := 0; b < batch; b++ {
		sample := s.view3(li, slotOutView, dx.Data[b*chw:(b+1)*chw], g.InC, g.InH, g.InW)
		tensor.Col2ImStripeInto(sample, dcols.Data, batch*n, b*n, g)
	}
	return dx
}

// Params implements ParamLayer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads implements ParamLayer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.dW, c.dB} }

// Dense is a fully connected layer y = Wx + b over (B,In) batches.
type Dense struct {
	In, Out int

	W *tensor.Tensor // (Out, In)
	B *tensor.Tensor // (Out)

	// Mask, when non-nil, zeroes pruned connections (approx package).
	Mask *tensor.Tensor

	dW *tensor.Tensor
	dB *tensor.Tensor

	// Int8 tier state (tier.go), mirroring Conv2D's.
	panel   *quant.Int8Panel
	useInt8 bool
	i8      tensor.Int8Scratch
}

// NewDense creates a dense layer with Gaussian init scaled by fan-in.
func NewDense(in, out int, r *rng.RNG) *Dense {
	d := &Dense{In: in, Out: out}
	d.W = tensor.New(out, in)
	sd := sqrt32(2 / float32(in))
	for i := range d.W.Data {
		d.W.Data[i] = r.NormFloat32() * sd
	}
	d.B = tensor.New(out)
	d.dW = tensor.New(out, in)
	d.dB = tensor.New(out)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return "dense" }

// effW is Conv2D.effW for the dense layer.
func (d *Dense) effW(s *Scratch, li int) *tensor.Tensor {
	if d.Mask == nil {
		return d.W
	}
	effW, fresh := s.once2(li, slotEffW, d.Out, d.In)
	if fresh {
		copy(effW.Data, d.W.Data)
		effW.Mul(d.Mask)
	}
	return effW
}

// forward implements Layer ((B,In) → (B,Out)): one GEMM against the
// transposed weights, spike-sparse input rows skipping wholesale (the
// int8 kernel under TierINT8). Training keeps the step's input for
// backward.
//
//axsnn:hotpath
func (d *Dense) forward(x *tensor.Tensor, s *Scratch, li, t int, train bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Shape[1] != d.In {
		panic(fmt.Sprintf("snn: Dense input %s, want (B,%d)", shapeStr(x.Shape), d.In)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	batch := x.Shape[0]
	out := s.buf2(li, slotOut, batch, d.Out)
	if !train && d.useInt8 {
		// Quantized tier: the panel already carries the prune mask.
		tensor.MatMulInt8Into(out.Data, x.Data, batch, d.In, d.panel.Codes, d.panel.Steps, d.Out, &d.i8)
	} else {
		wT, fresh := s.once2(li, slotWT, d.In, d.Out)
		if fresh {
			tensor.TransposeInto(wT, d.effW(s, li))
		}
		tensor.MatMulInto(out, x, wT)
	}
	for b := 0; b < batch; b++ {
		row := out.Data[b*d.Out : (b+1)*d.Out]
		for o := range row {
			row[o] += d.B.Data[o]
		}
	}
	if train {
		copy(s.buf2(li, at(slotXCache, t), batch, d.In).Data, x.Data)
	}
	return out
}

// backward implements Layer against the step's cached input. With
// needDX false (no parameter layer below) the input-gradient GEMM is
// skipped.
//
//axsnn:hotpath
func (d *Dense) backward(grad *tensor.Tensor, s *Scratch, li, t int, needDX bool) *tensor.Tensor {
	batch := grad.Shape[0]
	x := s.buf2(li, at(slotXCache, t), batch, d.In)
	// dWᵀ = xᵀ·grad with the spike-sparse x rows driving the skip path;
	// the transposed add is O(In·Out) against the O(B·In·Out) GEMM it
	// avoids.
	dwT := s.buf2(li, slotDW, d.In, d.Out)
	tensor.TMatMulInto(dwT, x, grad)
	d.dW.AddTransposed(dwT)
	for b := 0; b < batch; b++ {
		row := grad.Data[b*d.Out : (b+1)*d.Out]
		for o, g := range row {
			d.dB.Data[o] += g
		}
	}
	if !needDX {
		return nil
	}
	dx := s.buf2(li, slotGrad, batch, d.In)
	tensor.MatMulInto(dx, grad, d.effW(s, li))
	return dx
}

// Params implements ParamLayer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// Grads implements ParamLayer.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.dW, d.dB} }
