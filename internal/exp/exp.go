// Package exp contains one runner per figure and table of the paper's
// evaluation (§V). Every runner is deterministic given (Options.Seed,
// Options.Scale) and returns a Result with the rendered artifact, CSV
// data and the key numbers EXPERIMENTS.md records.
//
// The runners are shared by cmd/axsnn-repro, the examples and the
// repository-level benchmarks.
package exp

import (
	"fmt"
	"sync"

	"repro/internal/dataset"
	"repro/internal/dvs"
	"repro/internal/encoding"
	"repro/internal/rng"
	"repro/internal/snn"
)

// Scale selects the experiment size. Axis values (Vth, approximation
// levels, ε) always match the paper; Scale controls dataset sizes,
// epochs, grid density and the divisor applied to the paper's time-step
// axis (pure-Go BPTT over 80 steps × 63 grid cells is the one thing we
// cannot afford at full size; the divisor is recorded in every result).
// Every per-cell fit and every PGD/BIM transfer-set crafting pass runs
// against the snn arena (snn.Scratch), so the grids no
// longer churn the allocator on their BPTT hot loops.
type Scale int

const (
	// Tiny is for unit tests and benchmarks: seconds per experiment.
	Tiny Scale = iota
	// Small is the default for the repro binary: minutes end-to-end.
	Small
	// Paper runs the full 7×9 structural grid.
	Paper
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	default:
		return "paper"
	}
}

// ParseScale converts "tiny"/"small"/"paper".
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return Tiny, nil
	case "small", "":
		return Small, nil
	case "paper", "full":
		return Paper, nil
	}
	return Small, fmt.Errorf("exp: unknown scale %q", s)
}

// Options configures a runner.
type Options struct {
	Scale Scale
	Seed  uint64
	// MNISTDir, when set and containing the real IDX files, replaces
	// the synthetic digit corpus.
	MNISTDir string
	// Workers bounds grid parallelism (0 = GOMAXPROCS).
	Workers int
}

// preset holds the per-scale workload parameters.
type preset struct {
	trainN, testN int
	epochs        int
	imgHW         int
	tDiv          int // divide the paper's T axis by this
	vthAxis       []float32
	stepAxis      []int // paper-scale values
	gestureN      int   // train streams (test = gestureN/2)
	gestureDurMS  float64
	gestureSteps  int
	denseHidden   int
	attackIters   int
}

func presetFor(s Scale) preset {
	switch s {
	case Tiny:
		return preset{
			trainN: 300, testN: 60, epochs: 4, imgHW: 12, tDiv: 4,
			vthAxis:  []float32{0.25, 0.75, 1.25, 1.75, 2.25},
			stepAxis: []int{32, 56, 80},
			gestureN: 33, gestureDurMS: 600, gestureSteps: 8,
			denseHidden: 64, attackIters: 5,
		}
	case Small:
		return preset{
			trainN: 600, testN: 120, epochs: 4, imgHW: 14, tDiv: 4,
			vthAxis:  []float32{0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25},
			stepAxis: []int{32, 40, 48, 56, 64, 72, 80},
			gestureN: 66, gestureDurMS: 1000, gestureSteps: 12,
			denseHidden: 64, attackIters: 7,
		}
	default: // Paper
		return preset{
			trainN: 1500, testN: 300, epochs: 6, imgHW: 16, tDiv: 2,
			vthAxis:  []float32{0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25},
			stepAxis: []int{32, 40, 48, 56, 64, 72, 80},
			gestureN: 110, gestureDurMS: 1600, gestureSteps: 20,
			denseHidden: 96, attackIters: 7,
		}
	}
}

// scaledSteps maps a paper time-step value through the preset divisor.
func (p preset) scaledSteps(paperT int) int {
	t := paperT / p.tDiv
	if t < 3 {
		t = 3
	}
	return t
}

// EpsAxis is the perturbation-budget axis of Figs. 1-3.
var EpsAxis = []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.5}

// Result is a runner's output.
type Result struct {
	ID    string
	Title string
	// Text is the rendered artifact (curve table / heatmap / table).
	Text string
	// CSV holds machine-readable series keyed by name.
	CSV map[string]string
	// Metrics holds the headline numbers for EXPERIMENTS.md.
	Metrics map[string]float64
	// Notes records interpretation decisions relevant to this artifact.
	Notes string
}

// mnistData builds (or loads) the static train/test sets for a preset.
func mnistData(o Options, p preset) (train, test *dataset.Set) {
	cfg := dataset.DefaultSynthConfig()
	cfg.H, cfg.W = p.imgHW, p.imgHW
	train, test, _ = dataset.MNISTOrSynth(o.MNISTDir, p.trainN, p.testN, cfg, o.Seed)
	return train, test
}

// gestureData builds the event-stream train/test sets for a preset.
func gestureData(o Options, p preset) (train, test *dvs.Set) {
	cfg := dvs.DefaultGestureConfig()
	cfg.Duration = p.gestureDurMS
	train = dvs.GenerateGestureSet(p.gestureN, cfg, o.Seed+500)
	test = dvs.GenerateGestureSet(p.gestureN/2+dvs.GestureClasses, cfg, o.Seed+501)
	return train, test
}

// buildStatic returns the architecture constructor used for the static
// task at this scale: the paper's 7-layer conv topology at Paper scale,
// the dense preset below it (DESIGN.md substitution #4).
func buildStatic(o Options, p preset) func(cfg snn.Config, r *rng.RNG) *snn.Network {
	if o.Scale == Paper {
		return func(cfg snn.Config, r *rng.RNG) *snn.Network {
			return snn.MNISTNet(cfg, 1, p.imgHW, p.imgHW, true, r)
		}
	}
	in := p.imgHW * p.imgHW
	return func(cfg snn.Config, r *rng.RNG) *snn.Network {
		return snn.DenseNet(cfg, in, p.denseHidden, 10, r)
	}
}

// trainOpts returns a fresh-training-options factory for a preset.
func trainOpts(p preset) func() snn.TrainOptions {
	return func() snn.TrainOptions {
		return snn.TrainOptions{
			Epochs:    p.epochs,
			BatchSize: 16,
			Optimizer: snn.NewAdam(2e-3),
			Encoder:   encoding.Rate{},
		}
	}
}

// resultCache memoizes expensive shared computations (the structural
// sweep behind Figs. 4-6/7a) across runners in one process.
var (
	cacheMu sync.Mutex
	cache   = map[string]any{}
)

func cached[T any](key string, compute func() T) T {
	cacheMu.Lock()
	if v, ok := cache[key]; ok {
		cacheMu.Unlock()
		return v.(T)
	}
	cacheMu.Unlock()
	v := compute()
	cacheMu.Lock()
	cache[key] = v
	cacheMu.Unlock()
	return v
}
