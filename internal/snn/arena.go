package snn

import "repro/internal/tensor"

// The arena. Every pass through a network — inference, a training
// minibatch, an attack's input-gradient BPTT — draws its working memory
// from one Scratch: layer outputs, conv lowering panels, GEMM results,
// mask-applied and transposed weight panels, LIF membranes and, when
// training, the per-step caches the reverse pass reads back (LIF
// pre-reset potentials, im2col panels, dense inputs, pool argmax maps).
// Buffers are keyed by (layer index, slot), so once shapes have been
// seen a pass allocates nothing at all.
//
// Layout: per-pass buffers live at their slot number; per-step caches
// are a ring of Cfg.Steps buffers per (layer, slot), addressed by
// folding the step into the slot space (at). Only training passes
// write the rings — an inference pass touches one buffer per slot —
// and because caches are indexed by step rather than pushed on stacks,
// the backward pass can skip work it does not need: layers at or below
// the lowest parameter layer compute no input gradients unless the
// caller asked for them (attacks do, Train does not).
//
// Lifecycle: Network.AcquireScratch hands out an arena (recycled from a
// per-network free list), Network.Release returns it. Predict,
// PredictBatch, Train, InputGradient and the other helpers do this
// implicitly; long loops can acquire once and run many passes against
// one arena (TrainStepScratch, InputGradSumScratch). A Scratch belongs
// to one network (buffer shapes are keyed by layer position) and must
// not be shared between goroutines; concurrent work runs on
// CloneArchitecture clones, each with its own arenas.
//
// Weight-derived panels (mask application, transposition) are derived
// once per pass, so weight updates between passes are always seen.

// slotKey addresses one reusable buffer: the owning layer's position in
// the network and a layer-chosen slot number.
type slotKey struct {
	layer, slot int
}

// slot numbers shared by the layer implementations. Buffers and views
// may not collide on (layer, slot), so each layer type draws from this
// single enumeration, which must stay below slotStride.
const (
	slotOut      = iota // layer output buffer
	slotState           // persistent per-pass state (LIF membrane)
	slotLow             // conv lowering panel (per step when training)
	slotGemm            // GEMM result panel
	slotEffW            // mask-applied weights, once per pass
	slotWT              // transposed weights, once per pass
	slotInView          // view of one input sample
	slotOutView         // view of one output sample
	slotLogits          // accumulated readout (network-level)
	slotFrame           // batched input frame (network-level)
	slotPre             // LIF pre-reset potential, per step (training)
	slotCarry           // LIF dL/dV carry across reverse steps (training)
	slotXCache          // dense input cache, per step (training)
	slotGrad            // layer input-gradient buffer (training)
	slotGradView        // view of the gradient in another shape (training)
	slotDW              // dense per-step weight-gradient panel (training)
	slotMask            // dropout mask, once per pass (training)
	slotArg             // maxpool argmax indices, per step (training)
	slotDims            // layer input dims (flatten, pools)
	slotG2B             // conv gradient de-interleave panel (training)
	slotDCols           // conv column-gradient panel (training)
	slotGradStep        // per-step input-gradient copy (network-level)
	slotGradSum         // summed input gradient (network-level)
	slotLossGrad        // dL/dlogits buffer (network-level)
	slotIdx             // nonzero-index scratch for col-skip GEMMs
	slotCount           // number of slots; must stay <= slotStride
)

// slotStride folds the time step into the slot space: per-step slot s
// at step t lives at s + slotStride·(t+1), per-pass slots at s itself.
const slotStride = 32

var _ [slotStride - slotCount]struct{} // slots must fit the stride

// at maps (slot, step) to the folded slot index of a per-step cache.
func at(slot, t int) int { return slot + slotStride*(t+1) }

// netLayer is the pseudo layer index for network-level buffers.
const netLayer = -1

type scratchEntry struct {
	t *tensor.Tensor
	// state entries are zeroed at the start of every pass (begin).
	state bool
	// view entries borrow caller data; Release drops the reference.
	view bool
	// gen is the pass generation that last refreshed a once-per-pass
	// entry (effective/transposed weights, dropout mask, LIF carry).
	gen uint64
}

// Scratch is a per-network arena of reusable pass buffers.
type Scratch struct {
	m    map[slotKey]*scratchEntry
	ints map[slotKey][]int
	gen  uint64
	// one is the reusable single-sample batch Predict, InputGradient
	// and Calibrate run through.
	one [1][]*tensor.Tensor
}

func newScratch() *Scratch {
	return &Scratch{ //axsnn:allow-alloc builds the arena once; recycled via the free list thereafter
		m:    make(map[slotKey]*scratchEntry),
		ints: make(map[slotKey][]int),
	}
}

// begin opens a new pass: persistent state buffers (membranes) are
// cleared and once-per-pass entries invalidated.
func (s *Scratch) begin() {
	s.gen++
	for _, e := range s.m {
		if e.state {
			e.t.Zero()
		}
	}
}

// entry returns the (layer, slot) entry, creating it on first use.
func (s *Scratch) entry(layer, slot int) *scratchEntry {
	k := slotKey{layer, slot}
	e := s.m[k]
	if e == nil {
		e = &scratchEntry{} //axsnn:allow-alloc one entry per (layer, slot), created on first use
		s.m[k] = e
	}
	return e
}

// sized returns the entry with a data buffer of exactly n elements.
// Reuse is capacity-based: the buffer reallocates only when n exceeds
// the largest size the slot has ever held and shrinks by reslicing —
// so a caller whose batch width varies pass to pass (the serve tier's
// shared scheduler coalesces whatever windows are ready: 16, 3, 7, …)
// settles at the high-water size and then never allocates again.
func (s *Scratch) sized(layer, slot, n int) *scratchEntry {
	e := s.entry(layer, slot)
	switch {
	case e.t == nil || cap(e.t.Data) < n:
		e.t = &tensor.Tensor{Data: make([]float32, n)} //axsnn:allow-alloc grows only past the slot's high-water capacity (a larger shape or batch); smaller sizes reslice
	case len(e.t.Data) != n:
		// Reslicing can expose stale values a larger pass left beyond
		// the previous length. Working buffers are overwritten by
		// contract (see buf2..4); state buffers must open the pass at
		// zero, and begin() only zeroed the previous length.
		e.t.Data = e.t.Data[:n]
		if e.state {
			e.t.Zero()
		}
	}
	return e
}

// setShape reshapes a tensor header in place, only allocating when the
// rank changes (which a given slot does at most once).
func setShape(t *tensor.Tensor, rank int) []int {
	if len(t.Shape) != rank {
		t.Shape = make([]int, rank) //axsnn:allow-alloc rank changes at most once per slot
	}
	return t.Shape
}

// buf2..buf4 return a reusable buffer of the given shape. Contents are
// unspecified; callers overwrite every element.
func (s *Scratch) buf2(layer, slot, a, b int) *tensor.Tensor {
	t := s.sized(layer, slot, a*b).t
	sh := setShape(t, 2)
	sh[0], sh[1] = a, b
	return t
}

func (s *Scratch) buf4(layer, slot, a, b, c, d int) *tensor.Tensor {
	t := s.sized(layer, slot, a*b*c*d).t
	sh := setShape(t, 4)
	sh[0], sh[1], sh[2], sh[3] = a, b, c, d
	return t
}

// bufShape is buf for an existing shape slice (e.g. mirroring an input).
func (s *Scratch) bufShape(layer, slot int, shape []int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	t := s.sized(layer, slot, n).t
	copy(setShape(t, len(shape)), shape)
	return t
}

// stateBufShape is bufShape for a buffer that must persist across the
// steps of one pass and read as zero at the start of every pass (the
// LIF membrane).
func (s *Scratch) stateBufShape(layer, slot int, shape []int) *tensor.Tensor {
	s.entry(layer, slot).state = true
	return s.bufShape(layer, slot, shape)
}

// fresh reports whether a once-per-pass entry still has to be filled
// this pass, marking it filled.
func (s *Scratch) fresh(layer, slot int) bool {
	e := s.entry(layer, slot)
	f := e.gen != s.gen
	e.gen = s.gen
	return f
}

// once2 returns a once-per-pass buffer plus whether the caller must
// (re)fill it this pass — the weight-panel cache (mask application,
// transposition).
func (s *Scratch) once2(layer, slot, a, b int) (*tensor.Tensor, bool) {
	return s.buf2(layer, slot, a, b), s.fresh(layer, slot)
}

// onceShape is once2 for an arbitrary shape, also used for per-pass
// state whose first use must see it uninitialized (the LIF backward
// carry, the dropout mask).
func (s *Scratch) onceShape(layer, slot int, shape []int) (*tensor.Tensor, bool) {
	return s.bufShape(layer, slot, shape), s.fresh(layer, slot)
}

// view returns a cached tensor header wrapping caller data — the
// allocation-free Reshape/FromSlice. The header is reused, so a view is
// only valid until the slot's next use.
func (s *Scratch) view(layer, slot int, data []float32) *tensor.Tensor {
	e := s.entry(layer, slot)
	if e.t == nil {
		e.t = &tensor.Tensor{} //axsnn:allow-alloc one view header per slot, created on first use
	}
	e.view = true
	e.t.Data = data
	return e.t
}

func (s *Scratch) view2(layer, slot int, data []float32, a, b int) *tensor.Tensor {
	t := s.view(layer, slot, data)
	sh := setShape(t, 2)
	sh[0], sh[1] = a, b
	return t
}

func (s *Scratch) view3(layer, slot int, data []float32, a, b, c int) *tensor.Tensor {
	t := s.view(layer, slot, data)
	sh := setShape(t, 3)
	sh[0], sh[1], sh[2] = a, b, c
	return t
}

// viewShape is view2/view3 for an arbitrary shape slice.
func (s *Scratch) viewShape(layer, slot int, data []float32, shape []int) *tensor.Tensor {
	t := s.view(layer, slot, data)
	copy(setShape(t, len(shape)), shape)
	return t
}

// intBuf returns a reusable int buffer of length n for (layer, slot).
// Contents persist between the forward and backward of one pass.
func (s *Scratch) intBuf(layer, slot, n int) []int {
	k := slotKey{layer, slot}
	b := s.ints[k]
	if cap(b) < n {
		b = make([]int, n) //axsnn:allow-alloc grows only when the slot length increases
		s.ints[k] = b
	}
	return b[:n]
}

// release drops borrowed data references so a parked arena cannot keep
// caller tensors alive.
func (s *Scratch) release() {
	for _, e := range s.m {
		if e.view && e.t != nil {
			e.t.Data = nil
		}
	}
	s.one[0] = nil
}

// AcquireScratch returns an arena for this network, recycled from the
// network's free list when one is parked there. Pair with Release. Not
// safe for concurrent use — concurrent work runs on CloneArchitecture
// clones, each owning its arenas.
func (n *Network) AcquireScratch() *Scratch {
	if k := len(n.free); k > 0 {
		s := n.free[k-1]
		n.free = n.free[:k-1]
		return s
	}
	return newScratch()
}

// Release parks an arena for reuse by the next AcquireScratch.
func (n *Network) Release(s *Scratch) {
	if s == nil {
		return
	}
	s.release()
	n.free = append(n.free, s) //axsnn:allow-alloc free list grows to the high-water mark of live arenas
}

// stepInput stacks step t of every sample into the arena's one reused
// (B, sample shape...) frame; a sample with fewer frames than steps
// repeats its last frame.
func stepInput(s *Scratch, samples [][]*tensor.Tensor, t int) *tensor.Tensor {
	shape := samples[0][0].Shape
	per := samples[0][0].Len()
	f := s.sized(netLayer, slotFrame, len(samples)*per).t
	sh := setShape(f, 1+len(shape))
	sh[0] = len(samples)
	copy(sh[1:], shape)
	for b, fr := range samples {
		src := fr[min(t, len(fr)-1)]
		if src.Len() != per {
			panic("snn: batch samples disagree on frame size")
		}
		copy(f.Data[b*per:(b+1)*per], src.Data)
	}
	return f
}

// forwardPass runs every step of a batch (samples[b] is sample b's
// frame sequence) through every layer against the arena and returns
// the accumulated (B, classes) logits, which live in the arena until
// its next pass. train selects the training kernels and records the
// per-step caches backwardPass reads; inference keeps no rings.
//
//axsnn:hotpath
func (n *Network) forwardPass(s *Scratch, samples [][]*tensor.Tensor, train bool) *tensor.Tensor {
	if len(samples) == 0 {
		panic("snn: forward pass with no samples")
	}
	for _, fr := range samples {
		if len(fr) == 0 {
			panic("snn: forward pass sample with no input frames")
		}
	}
	s.begin()
	var logits *tensor.Tensor
	for t := 0; t < n.Cfg.Steps; t++ {
		x := stepInput(s, samples, t)
		for li, l := range n.Layers {
			x = l.forward(x, s, li, t, train)
		}
		if logits == nil {
			logits = s.bufShape(netLayer, slotLogits, x.Shape)
			logits.Zero()
		}
		logits.Add(x)
	}
	return logits
}
