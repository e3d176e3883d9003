package snn

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Golden outputs of the compute paths. Each test below runs a fixed
// workload at tensor workers 1 and 2 and compares what the exported API
// returns — predicted classes, per-step input gradients, trained
// weights, LIF calibration statistics — against a checked-in record of
// the same workload, bit for bit (math.Float32bits / math.Float64bits,
// folded into an FNV-64a digest per tensor). The records pin numbers,
// not a second implementation: any kernel, arena or accumulation-order
// change that moves one bit fails here.
//
// The file only uses the package's exported surface plus the
// update-golden flag and goldenPath, so it runs unchanged against any
// revision that keeps that surface.
//
// Regenerate with: go test ./internal/snn -run TestComputeGolden -update-golden
// (only when a numeric change is intended; say why in the commit.)

// goldenRecord maps a workload label to its digest.
type goldenRecord map[string]string

// floats records a float32 slice by length and FNV-64a over its bits.
func (g goldenRecord) floats(name string, data []float32) {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range data {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	g[name] = fmt.Sprintf("n=%d fnv=%016x", len(data), h.Sum64())
}

// ints records an int slice verbatim.
func (g goldenRecord) ints(name string, v []int) { g[name] = fmt.Sprint(v) }

// float64s records float64 values by their exact bits.
func (g goldenRecord) float64s(name string, v ...float64) {
	bits := make([]string, len(v))
	for i, x := range v {
		bits[i] = fmt.Sprintf("%016x", math.Float64bits(x))
	}
	g[name] = fmt.Sprint(bits)
}

// checkGolden runs build at workers 1 and 2, then compares the union of
// its records with testdata/<file> (or rewrites it under
// -update-golden).
func checkGolden(t *testing.T, file string, build func(g goldenRecord, prefix string)) {
	t.Helper()
	defer tensor.SetWorkers(0)
	got := goldenRecord{}
	for _, w := range []int{1, 2} {
		tensor.SetWorkers(w)
		build(got, fmt.Sprintf("w%d/", w))
	}
	path := goldenPath(file)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	want := goldenRecord{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: %s, want %s", k, got[k], want[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: recorded %s but absent from %s", k, got[k], file)
		}
	}
}

// gcFrames builds steps frames of the given shape with spike density p.
func gcFrames(r *rng.RNG, steps int, shape []int, p float64) []*tensor.Tensor {
	out := make([]*tensor.Tensor, steps)
	for t := range out {
		f := tensor.New(shape...)
		for i := range f.Data {
			if r.Float64() < p {
				f.Data[i] = 1
			}
		}
		out[t] = f
	}
	return out
}

// gcCase is one network of the golden workloads with its input shape.
type gcCase struct {
	name  string
	build func() *Network
	shape []int
}

func gcCases() []gcCase {
	return []gcCase{
		{"dense", func() *Network { return DenseNet(DefaultConfig(0.5, 5), 144, 32, 10, rng.New(101)) }, []int{12, 12}},
		{"mnist", func() *Network { return MNISTNet(DefaultConfig(0.5, 5), 1, 12, 12, true, rng.New(102)) }, []int{1, 12, 12}},
		{"dvs", func() *Network {
			return DVSNet(DefaultConfig(1.0, 5), 16, 16, 11, true, rng.New(103), rng.New(104))
		}, []int{2, 16, 16}},
	}
}

// gcMask installs a keep-70% pruning mask on every weighted layer.
func gcMask(net *Network, seed uint64) {
	r := rng.New(seed)
	for _, l := range net.Layers {
		var w *tensor.Tensor
		var m **tensor.Tensor
		switch v := l.(type) {
		case *Conv2D:
			w, m = v.W, &v.Mask
		case *Dense:
			w, m = v.W, &v.Mask
		default:
			continue
		}
		mask := tensor.New(w.Shape...)
		for i := range mask.Data {
			if r.Float64() < 0.7 {
				mask.Data[i] = 1
			}
		}
		*m = mask
	}
}

// gcTrained returns the case's network after a short fit on inputs of
// its shape, so the golden predictions spread over several classes
// instead of the one class an untrained network favours.
func gcTrained(tc gcCase) *Network {
	net := tc.build()
	r := rng.New(118)
	samples := make([][]*tensor.Tensor, 33)
	labels := make([]int, len(samples))
	for i := range samples {
		samples[i] = gcFrames(r, net.Cfg.Steps, tc.shape, 0.05+0.025*float64(i%11))
		labels[i] = i % 10
	}
	TrainFrames(net, samples, labels, TrainOptions{Epochs: 3, BatchSize: 8, Optimizer: NewAdam(1e-2), Seed: 119})
	return net
}

// TestComputeGoldenPredict pins per-sample Predict and batched
// PredictBatch classes for FP32, INT8 and masked (approximate)
// networks, over sparse and dense inputs.
func TestComputeGoldenPredict(t *testing.T) {
	checkGolden(t, "compute_predict.json", func(g goldenRecord, prefix string) {
		for _, tc := range gcCases() {
			for _, variant := range []string{"fp32", "int8", "masked"} {
				net := gcTrained(tc)
				switch variant {
				case "int8":
					if err := net.BuildInt8Panels(); err != nil {
						t.Fatal(err)
					}
					if err := net.SetTier(TierINT8); err != nil {
						t.Fatal(err)
					}
				case "masked":
					gcMask(net, 105)
				}
				r := rng.New(106)
				var samples [][]*tensor.Tensor
				for _, p := range []float64{0.05, 0.2, 0.45, 0.8} {
					for k := 0; k < 3; k++ {
						samples = append(samples, gcFrames(r, net.Cfg.Steps, tc.shape, p))
					}
				}
				single := make([]int, len(samples))
				for i, s := range samples {
					single[i] = net.Predict(s)
				}
				key := prefix + tc.name + "/" + variant
				g.ints(key+"/predict", single)
				g.ints(key+"/predict_batch", net.PredictBatch(samples))
				g.ints(key+"/predict_batch3", net.PredictBatch(samples[2:5]))
			}
		}
	})
}

// TestComputeGoldenInputGradients pins the per-step input gradients of
// per-sample InputGradient and batched InputGradientBatch.
func TestComputeGoldenInputGradients(t *testing.T) {
	checkGolden(t, "compute_input_grad.json", func(g goldenRecord, prefix string) {
		for _, tc := range gcCases() {
			for _, variant := range []string{"fp32", "masked"} {
				net := tc.build()
				if variant == "masked" {
					gcMask(net, 120)
				}
				key := prefix + tc.name + "/" + variant
				r := rng.New(107)
				samples := make([][]*tensor.Tensor, 4)
				labels := make([]int, len(samples))
				for b := range samples {
					samples[b] = gcFrames(r, net.Cfg.Steps, tc.shape, 0.3)
					labels[b] = (3*b + 1) % 10
				}
				for b, s := range samples {
					for step, gr := range InputGradient(net, s, labels[b]) {
						g.floats(fmt.Sprintf("%s/input_grad/%d/%d", key, b, step), gr.Data)
					}
				}
				frames := StackFrames(samples, net.Cfg.Steps)
				for step, gr := range InputGradientBatch(net, frames, labels) {
					g.floats(fmt.Sprintf("%s/input_grad_batch/%d", key, step), gr.Data)
				}
			}
		}
	})
}

// gcTrainSet is a small synthetic 12×12 digit set.
func gcTrainSet(n int, seed uint64) *dataset.Set {
	cfg := dataset.DefaultSynthConfig()
	cfg.H, cfg.W = 12, 12
	return dataset.GenerateSynth(n, cfg, seed)
}

// TestComputeGoldenTrain pins the weights Train produces for a DenseNet
// and a lite MNISTNet under rate encoding and gradient clipping.
func TestComputeGoldenTrain(t *testing.T) {
	checkGolden(t, "compute_train.json", func(g goldenRecord, prefix string) {
		set := gcTrainSet(40, 108)
		nets := map[string]*Network{
			"dense": DenseNet(DefaultConfig(0.5, 5), 144, 24, 10, rng.New(109)),
			"mnist": MNISTNet(DefaultConfig(0.5, 4), 1, 12, 12, true, rng.New(110)),
		}
		for name, net := range nets {
			var losses []float64
			Train(net, set, TrainOptions{
				Epochs: 2, BatchSize: 8,
				Optimizer: NewAdam(2e-3),
				Encoder:   encoding.Rate{},
				Seed:      111,
				ClipNorm:  1.0,
				OnEpoch:   func(_ int, l float64) { losses = append(losses, l) },
			})
			g.float64s(prefix+name+"/train_loss", losses...)
			for i, p := range net.Params() {
				g.floats(fmt.Sprintf("%s%s/train_param/%d", prefix, name, i), p.Data)
			}
		}
	})
}

// TestComputeGoldenTrainFrames pins the weights TrainFrames produces
// for a lite DVSNet: dropout masks, the pool-bottomed topology and SGD
// with momentum.
func TestComputeGoldenTrainFrames(t *testing.T) {
	checkGolden(t, "compute_train_frames.json", func(g goldenRecord, prefix string) {
		r := rng.New(112)
		samples := make([][]*tensor.Tensor, 18)
		labels := make([]int, len(samples))
		for i := range samples {
			samples[i] = gcFrames(r, 5, []int{2, 16, 16}, 0.25)
			labels[i] = i % 11
		}
		net := DVSNet(DefaultConfig(1.0, 5), 16, 16, 11, true, rng.New(113), rng.New(114))
		var losses []float64
		TrainFrames(net, samples, labels, TrainOptions{
			Epochs: 2, BatchSize: 4,
			Optimizer: NewSGD(0.05, 0.9),
			Seed:      115,
			OnEpoch:   func(_ int, l float64) { losses = append(losses, l) },
		})
		g.float64s(prefix+"dvs/train_loss", losses...)
		for i, p := range net.Params() {
			g.floats(fmt.Sprintf("%sdvs/train_param/%d", prefix, i), p.Data)
		}
	})
}

// TestComputeGoldenCalibrate pins the LIF calibration statistics
// Calibrate accumulates, which the approximation-level equation reads.
func TestComputeGoldenCalibrate(t *testing.T) {
	checkGolden(t, "compute_calibrate.json", func(g goldenRecord, prefix string) {
		for _, tc := range gcCases() {
			for _, variant := range []string{"fp32", "int8", "masked"} {
				net := tc.build()
				switch variant {
				case "int8":
					// Calibration statistics are an FP32 quantity
					// whatever the serving tier.
					if err := net.BuildInt8Panels(); err != nil {
						t.Fatal(err)
					}
					if err := net.SetTier(TierINT8); err != nil {
						t.Fatal(err)
					}
				case "masked":
					gcMask(net, 116)
				}
				r := rng.New(117)
				calib := make([][]*tensor.Tensor, 5)
				for i := range calib {
					calib[i] = gcFrames(r, net.Cfg.Steps, tc.shape, 0.1+0.15*float64(i))
				}
				Calibrate(net, calib)
				for i, l := range net.LIFLayers() {
					g.float64s(fmt.Sprintf("%s%s/%s/lif/%d", prefix, tc.name, variant, i),
						l.StatSpikes, l.StatVSum, float64(l.StatSteps), float64(l.StatUnits))
				}
			}
		}
	})
}
