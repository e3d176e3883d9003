// Package attack implements the four adversarial attacks the paper
// evaluates (§II, §III): the gradient-based l∞ attacks PGD and BIM on
// static images (plus single-step FGSM as a baseline), and the
// neuromorphic Sparse and Frame attacks on DVS event streams.
//
// Threat model (paper §III): the adversary crafts examples with the
// *accurate* classifier's gradients — it does not know the victim's
// approximation level, precision scale or structural parameters — and the
// crafted inputs transfer to the AxSNN under evaluation.
package attack

import (
	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// Gradient is an iterative l∞ gradient attack on pixel intensities.
// RandomStart distinguishes PGD (true) from BIM (false).
type Gradient struct {
	Eps         float64 // l∞ perturbation budget ε
	Steps       int     // iterations
	Alpha       float64 // per-step size (0 ⇒ ε/Steps·2.5 for PGD, ε/Steps for BIM)
	RandomStart bool
	Encoder     encoding.Encoder // encoding used while computing gradients

	// Target, when non-negative, switches to a targeted attack: instead
	// of maximizing the true-label loss, the attack *minimizes* the
	// loss towards Target, steering the classifier to that class.
	Target int
}

// PGD returns the projected-gradient-descent attack with budget eps.
func PGD(eps float64) *Gradient {
	return &Gradient{Eps: eps, Steps: 7, RandomStart: true, Encoder: encoding.Direct{}, Target: -1}
}

// BIM returns the basic iterative method with budget eps.
func BIM(eps float64) *Gradient {
	return &Gradient{Eps: eps, Steps: 7, RandomStart: false, Encoder: encoding.Direct{}, Target: -1}
}

// FGSM returns the single-step fast-gradient-sign baseline.
func FGSM(eps float64) *Gradient {
	return &Gradient{Eps: eps, Steps: 1, Alpha: eps, RandomStart: false, Encoder: encoding.Direct{}, Target: -1}
}

// TargetedPGD returns a PGD variant that steers inputs toward class
// target instead of merely away from the truth.
func TargetedPGD(eps float64, target int) *Gradient {
	g := PGD(eps)
	g.Target = target
	return g
}

// Name identifies the attack for reports.
func (g *Gradient) Name() string {
	switch {
	case g.Steps == 1:
		return "FGSM"
	case g.RandomStart:
		return "PGD"
	default:
		return "BIM"
	}
}

// Perturb crafts an adversarial image from img (values in [0,1]) against
// model, maximizing the true-label loss within the ε-ball. The model is
// the adversary's surrogate (the accurate SNN). r drives the random start
// and any stochastic encoding.
func (g *Gradient) Perturb(model *snn.Network, img *tensor.Tensor, label int, r *rng.RNG) *tensor.Tensor {
	if g.Eps <= 0 {
		return img.Clone()
	}
	alpha := g.Alpha
	if alpha == 0 {
		if g.RandomStart {
			alpha = 2.5 * g.Eps / float64(g.Steps)
		} else {
			alpha = g.Eps / float64(g.Steps)
		}
	}

	adv := img.Clone()
	if g.RandomStart {
		// Start inside the ball but no farther than one step: with a
		// step budget below ε (calibrated transfer attacks) a full-ball
		// start would swamp the gradient steps with noise.
		start := alpha
		if g.Eps < start {
			start = g.Eps
		}
		for i := range adv.Data {
			adv.Data[i] += float32((2*r.Float64() - 1) * start)
		}
		projectLinf(adv, img, g.Eps)
		adv.Clamp(0, 1)
	}

	for it := 0; it < g.Steps; it++ {
		frames := g.Encoder.Encode(adv, model.Cfg.Steps, r)
		lossLabel, dir := label, float32(alpha)
		if g.Target >= 0 {
			// Targeted: descend the loss towards the target class.
			lossLabel, dir = g.Target, float32(-alpha)
		}
		frameGrads := snn.InputGradient(model, frames, lossLabel)
		grad := encoding.SumFrameGradients(frameGrads)
		// Untargeted: x ← x + α·sign(∇_x L(label)).
		// Targeted:   x ← x − α·sign(∇_x L(target)).
		grad.Sign()
		adv.AddScaled(dir, grad)
		projectLinf(adv, img, g.Eps)
		adv.Clamp(0, 1)
	}
	return adv
}

// PerturbBatch crafts adversarial images for a whole batch in lockstep:
// every PGD/BIM iteration encodes all samples, runs one batched BPTT
// pass for the input gradients, and steps every image at once. The
// result is deterministic and independent of batch partitioning — the
// encoding RNG is split per sample up front — but the stream differs
// from calling Perturb sample-by-sample with a shared RNG.
//
// The backward pass runs against one arena on one weight-sharing
// evaluation clone for the whole crafting session: frame stacking, the
// forward caches and the BPTT buffers are all reused across iterations,
// so the inner loop allocates only the encoded frames. Gradients are
// bit-identical to summing InputGradientBatch's per-step gradients.
func (g *Gradient) PerturbBatch(model *snn.Network, imgs []*tensor.Tensor, labels []int, r *rng.RNG) []*tensor.Tensor {
	batch := len(imgs)
	if batch == 0 {
		return nil
	}
	rngs := make([]*rng.RNG, batch)
	for i := range rngs {
		rngs[i] = r.Split()
	}
	advs := make([]*tensor.Tensor, batch)
	if g.Eps <= 0 {
		for i, img := range imgs {
			advs[i] = img.Clone()
		}
		return advs
	}
	alpha := g.Alpha
	if alpha == 0 {
		if g.RandomStart {
			alpha = 2.5 * g.Eps / float64(g.Steps)
		} else {
			alpha = g.Eps / float64(g.Steps)
		}
	}
	for i, img := range imgs {
		advs[i] = img.Clone()
		if g.RandomStart {
			start := alpha
			if g.Eps < start {
				start = g.Eps
			}
			for j := range advs[i].Data {
				advs[i].Data[j] += float32((2*rngs[i].Float64() - 1) * start)
			}
			projectLinf(advs[i], img, g.Eps)
			advs[i].Clamp(0, 1)
		}
	}

	// One evaluation clone + arena serve every iteration: dropout stays
	// disabled (clones carry no RNG) and the caller's network keeps
	// clean state, exactly like InputGradientBatch.
	clone := model.CloneArchitecture()
	s := clone.AcquireScratch()
	defer clone.Release(s)

	lossLabels := make([]int, batch)
	samples := make([][]*tensor.Tensor, batch)
	per := imgs[0].Len()
	for it := 0; it < g.Steps; it++ {
		for i := range advs {
			samples[i] = g.Encoder.Encode(advs[i], model.Cfg.Steps, rngs[i])
		}
		dir := float32(alpha)
		if g.Target >= 0 {
			// Targeted: descend the loss towards the target class.
			dir = float32(-alpha)
			for i := range lossLabels {
				lossLabels[i] = g.Target
			}
		} else {
			copy(lossLabels, labels)
		}
		grad := clone.InputGradSumScratch(samples, lossLabels, s) // (B, image shape...)
		for i, adv := range advs {
			gi := tensor.FromSlice(grad.Data[i*per:(i+1)*per], adv.Shape...)
			gi.Sign()
			adv.AddScaled(dir, gi)
			projectLinf(adv, imgs[i], g.Eps)
			adv.Clamp(0, 1)
		}
	}
	return advs
}

// PerturbSet crafts an adversarial copy of a whole dataset against
// model, processing chunks through the batched path.
func (g *Gradient) PerturbSet(model *snn.Network, set *dataset.Set, r *rng.RNG) *dataset.Set {
	adv := set.Clone()
	const chunk = 32
	for b := 0; b < len(adv.Samples); b += chunk {
		end := b + chunk
		if end > len(adv.Samples) {
			end = len(adv.Samples)
		}
		imgs := make([]*tensor.Tensor, end-b)
		labels := make([]int, end-b)
		for i := b; i < end; i++ {
			imgs[i-b] = adv.Samples[i].Image
			labels[i-b] = adv.Samples[i].Label
		}
		for i, a := range g.PerturbBatch(model, imgs, labels, r) {
			adv.Samples[b+i].Image = a
		}
	}
	return adv
}

// projectLinf clips adv into the l∞ ε-ball around origin.
func projectLinf(adv, origin *tensor.Tensor, eps float64) {
	e := float32(eps)
	for i := range adv.Data {
		lo, hi := origin.Data[i]-e, origin.Data[i]+e
		if adv.Data[i] < lo {
			adv.Data[i] = lo
		} else if adv.Data[i] > hi {
			adv.Data[i] = hi
		}
	}
}
