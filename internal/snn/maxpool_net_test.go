package snn

import (
	"testing"

	"repro/internal/encoding"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// MaxPool is not used by the paper presets (which average-pool, the SNN
// convention), but it must compose correctly into a trainable network.
func TestMaxPoolNetworkTrains(t *testing.T) {
	r := rng.New(50)
	cfg := DefaultConfig(0.5, 5)
	conv := NewConv2D(1, 6, 3, 1, 1, 12, 12, r)
	lif1 := NewLIF(cfg.VTh, cfg.Decay, cfg.Beta)
	pool := NewMaxPool(2)
	flat := &Flatten{}
	fc := NewDense(6*6*6, 10, r)
	net := NewNetwork(cfg, conv, lif1, pool, flat, fc)

	train := tinyTrainSet(250, 51)
	Train(net, train, TrainOptions{
		Epochs: 3, BatchSize: 16,
		Optimizer: NewAdam(3e-3),
		Encoder:   encoding.Direct{},
		Seed:      52,
	})
	acc := Accuracy(net, train, encoding.Direct{}, 53)
	if acc < 0.4 {
		t.Fatalf("max-pool network failed to train: %.2f", acc)
	}
}

// Max pooling of a binary spike plane stays binary, in inference and
// training passes alike.
func TestMaxPoolSpikePlaneBinary(t *testing.T) {
	r := rng.New(54)
	lif := NewLIF(0.3, 0.9, 4)
	pool := NewMaxPool(2)
	s := newScratch()
	for round := 0; round < 3; round++ {
		s.begin()
		x := tensor.New(1, 1, 8, 8)
		for i := range x.Data {
			x.Data[i] = r.Float32()
		}
		train := round == 1
		spikes := lif.forward(x, s, 0, 0, train)
		out := pool.forward(spikes, s, 1, 0, train)
		for _, v := range out.Data {
			if v != 0 && v != 1 {
				t.Fatalf("pooled spike plane not binary: %v", v)
			}
		}
	}
}
