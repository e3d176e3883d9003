package main

import (
	"math"
	"time"

	"repro/internal/approx"
	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/dvs"
	"repro/internal/encoding"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// The paper's experiment loop, run as a probe of the secure workload's
// traced run: a PGD-crafted batch against the accurate static network,
// classified by its AxSNN at approximation level 0.01 (the point of the
// paper's Figs. 4–6), and a Sparse-attacked batch of gesture streams,
// filtered by AQF and classified by the gesture network.
const (
	pgdBatch, pgdPool       = 16, 3
	sparseBatch, sparsePool = 8, 3
	approxLevel             = 0.01
	pgdEps                  = 0.5
)

type pgdInput struct {
	imgs   []*tensor.Tensor
	labels []int
	seed   uint64
}

// staticNets builds the accurate static network from its checkpoint and
// its AxSNN, returning how long Approximate took.
func staticNets(ckpt []byte, calib [][]*tensor.Tensor) (acc, ax *snn.Network, took time.Duration, err error) {
	if acc, err = loadMNIST(ckpt); err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	ax, _ = approx.Approximate(acc, approx.Params{Level: approxLevel, Scale: quant.FP32}, calib)
	return acc, ax, time.Since(start), nil
}

// pgdOp crafts the batch against acc and counts how many adversarial
// images ax still classifies correctly.
func pgdOp(tr *Tracer, parent int, acc, ax *snn.Network, in pgdInput) (correct int, craft, classify time.Duration) {
	atk := attack.PGD(pgdEps)
	atk.Encoder = encoding.Rate{}
	var adv []*tensor.Tensor
	craft = tr.Time("attack.pgd", parent, func() { adv = atk.PerturbBatch(acc, in.imgs, in.labels, rng.New(in.seed)) })
	set := &dataset.Set{Classes: 10, H: 16, W: 16}
	for i, img := range adv {
		set.Samples = append(set.Samples, dataset.Sample{Image: img, Label: in.labels[i]})
	}
	var a float64
	classify = tr.Time("snn.classify.static", parent, func() { a = snn.Accuracy(ax, set, encoding.Rate{}, in.seed) })
	return int(math.Round(a * float64(len(adv)))), craft, classify
}

// sparseOp attacks the streams, filters the adversarial streams with AQF
// and counts how many the network still classifies correctly. iters is
// the attack's greedy iterations summed over the streams, derived from
// the events it injected (each iteration injects EventsPerIter).
func sparseOp(tr *Tracer, parent int, net *snn.Network, set *dvs.Set) (correct, iters int, craft, filter time.Duration) {
	atk := attack.NewSparse()
	var adv *dvs.Set
	craft = tr.Time("attack.sparse", parent, func() { adv = atk.PerturbSet(net, set) })
	streams := make([]*dvs.Stream, adv.Len())
	for i, s := range adv.Samples {
		streams[i] = s.Stream
		added := len(s.Stream.Events) - len(set.Samples[i].Stream.Events)
		iters += (added + atk.EventsPerIter - 1) / atk.EventsPerIter
	}
	var clean []*dvs.Stream
	filter = tr.Time("defense.filterset", parent, func() { clean = defense.FilterSet(streams, defense.DefaultAQFParams(sweepQt)) })
	tr.Time("snn.predict.dvs", parent, func() {
		samples := make([][]*tensor.Tensor, len(clean))
		for i, s := range clean {
			samples[i] = s.Voxelize(modelSteps)
		}
		for i, p := range net.PredictBatch(samples) {
			if p == set.Samples[i].Label {
				correct++
			}
		}
	})
	return correct, iters, craft, filter
}

// robustnessProbe runs the loop on inputs made from seed. Each batch's
// adversarial-accuracy count is first computed on independently built
// networks; a timed op whose count differs from that reference fails.
func robustnessProbe(tr *Tracer, dvsCkpt []byte, seed uint64, budget time.Duration) (map[string]float64, int, int, error) {
	scfg := dataset.DefaultSynthConfig()
	train := dataset.GenerateSynth(300, scfg, modelSeed+11)
	ckpt, err := trainMNIST(train, modelSeed)
	if err != nil {
		return nil, 0, 0, err
	}
	enc := rng.New(seed + 13)
	var calib [][]*tensor.Tensor
	for _, s := range train.Samples[:16] {
		calib = append(calib, encoding.Rate{}.Encode(s.Image, staticSteps, enc))
	}
	test := dataset.GenerateSynth(pgdBatch*pgdPool, scfg, seed+12)
	pgdIn := make([]pgdInput, pgdPool)
	for b := range pgdIn {
		pgdIn[b].seed = seed*100 + uint64(b)
		for _, s := range test.Samples[b*pgdBatch : (b+1)*pgdBatch] {
			pgdIn[b].imgs = append(pgdIn[b].imgs, s.Image)
			pgdIn[b].labels = append(pgdIn[b].labels, s.Label)
		}
	}

	root := tr.Begin("probe.robustness", 0)
	defer tr.End(root)
	refAcc, refAx, _, err := staticNets(ckpt, calib)
	if err != nil {
		return nil, 0, 0, err
	}
	pgdRef := make([]int, pgdPool)
	for b := range pgdIn {
		pgdRef[b], _, _ = pgdOp(nil, 0, refAcc, refAx, pgdIn[b])
	}
	var approxMs []float64
	var acc, ax *snn.Network
	for i := 0; i < 3; i++ {
		var took time.Duration
		if acc, ax, took, err = staticNets(ckpt, calib); err != nil {
			return nil, 0, 0, err
		}
		tr.Record("approx.approximate", root, time.Now().Add(-took), time.Now())
		approxMs = append(approxMs, ms(took))
	}

	attempted, failed := 0, 0
	var pgdMs, classUs, gradMs []float64
	deadline := time.Now().Add(budget / 2)
	for i := 0; i < pgdPool || time.Now().Before(deadline); i++ {
		b := i % pgdPool
		got, craft, classify := pgdOp(tr, root, acc, ax, pgdIn[b])
		attempted++
		if got != pgdRef[b] {
			failed++
		}
		pgdMs = append(pgdMs, ms(craft))
		classUs = append(classUs, float64(classify)/float64(time.Microsecond)/pgdBatch)
	}
	for b := range pgdIn {
		samples := make([][]*tensor.Tensor, pgdBatch)
		for i, img := range pgdIn[b].imgs {
			samples[i] = encoding.Rate{}.Encode(img, staticSteps, enc)
		}
		frames := snn.StackFrames(samples, staticSteps)
		gradMs = append(gradMs, ms(tr.Time("snn.input_grad", root, func() { snn.InputGradientBatch(acc, frames, pgdIn[b].labels) })))
	}

	// Sparse: streams the clean gesture network classifies correctly
	// first, so the attack has work to do on every stream it gets.
	dnet, err := loadDVS(dvsCkpt)
	if err != nil {
		return nil, 0, 0, err
	}
	refNet, err := loadDVS(dvsCkpt)
	if err != nil {
		return nil, 0, 0, err
	}
	cand := dvs.GenerateGestureSet(8*sparseBatch*sparsePool, gestureConfig(), seed+14)
	var right, wrong []dvs.Sample
	for _, s := range cand.Samples {
		if dnet.Predict(s.Stream.Voxelize(modelSteps)) == s.Label {
			right = append(right, s)
		} else {
			wrong = append(wrong, s)
		}
	}
	pool := append(right, wrong...)
	sets := make([]*dvs.Set, sparsePool)
	sparseRef := make([]int, sparsePool)
	for b := range sets {
		sets[b] = &dvs.Set{Samples: pool[b*sparseBatch : (b+1)*sparseBatch], Classes: cand.Classes, W: cand.W, H: cand.H}
		sparseRef[b], _, _, _ = sparseOp(nil, 0, refNet, sets[b])
	}
	var sparseMs, filterMs, iters []float64
	deadline = time.Now().Add(budget / 2)
	for i := 0; i < sparsePool || time.Now().Before(deadline); i++ {
		b := i % sparsePool
		got, it, craft, filter := sparseOp(tr, root, dnet, sets[b])
		attempted++
		if got != sparseRef[b] {
			failed++
		}
		sparseMs = append(sparseMs, ms(craft)/sparseBatch)
		filterMs = append(filterMs, ms(filter)/sparseBatch)
		iters = append(iters, float64(it)/sparseBatch)
	}
	return map[string]float64{
		"attack.pgd_ms_per_batch":          median(pgdMs),
		"snn.predict_us_per_sample.static": median(classUs),
		"snn.input_grad_ms_per_batch":      median(gradMs),
		"attack.sparse_ms_per_stream":      median(sparseMs),
		"attack.sparse_iters_per_stream":   mean(iters),
		"defense.aqf_ms_per_stream":        median(filterMs),
		"approx.approximate_ms":            median(approxMs),
	}, attempted, failed, nil
}
