package snn

import (
	"bytes"
	"testing"

	"repro/internal/encoding"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestAccuracyParallelWorkerInvariance(t *testing.T) {
	r := rng.New(1)
	net := DenseNet(DefaultConfig(0.5, 6), 144, 32, 10, r)
	test := tinyTrainSet(60, 2)
	a1 := AccuracyParallel(net, test, encoding.Rate{}, 42, 1)
	a4 := AccuracyParallel(net, test, encoding.Rate{}, 42, 4)
	a9 := AccuracyParallel(net, test, encoding.Rate{}, 42, 9)
	if a1 != a4 || a4 != a9 {
		t.Fatalf("worker count changed the result: %v %v %v", a1, a4, a9)
	}
}

func TestAccuracyParallelMatchesSerialWithDirect(t *testing.T) {
	// With a deterministic encoder the parallel and serial paths must
	// agree exactly.
	r := rng.New(3)
	net := DenseNet(DefaultConfig(0.5, 6), 144, 32, 10, r)
	test := tinyTrainSet(50, 4)
	serial := Accuracy(net, test, encoding.Direct{}, 7)
	parallel := AccuracyParallel(net, test, encoding.Direct{}, 7, 0)
	if serial != parallel {
		t.Fatalf("serial %v vs parallel %v", serial, parallel)
	}
}

func TestAccuracyParallelEmptySet(t *testing.T) {
	r := rng.New(5)
	net := DenseNet(DefaultConfig(0.5, 4), 4, 4, 2, r)
	if AccuracyParallel(net, tinyTrainSet(0, 6), encoding.Direct{}, 1, 4) != 0 {
		t.Fatal("empty set must yield 0")
	}
}

func TestSaveLoadPreservesMasks(t *testing.T) {
	r := rng.New(7)
	a := DenseNet(DefaultConfig(0.5, 4), 16, 8, 4, r)
	// Install a mask by hand on the first dense layer.
	d := a.Layers[1].(*Dense)
	d.Mask = tensor.New(d.W.Shape...)
	for i := range d.Mask.Data {
		if i%2 == 0 {
			d.Mask.Data[i] = 1
		}
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := DenseNet(DefaultConfig(0.5, 4), 16, 8, 4, rng.New(8))
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	bd := b.Layers[1].(*Dense)
	if bd.Mask == nil {
		t.Fatal("mask lost in round-trip")
	}
	for i := range d.Mask.Data {
		if bd.Mask.Data[i] != d.Mask.Data[i] {
			t.Fatal("mask values differ after round-trip")
		}
	}
	// Unmasked layers stay unmasked.
	if b.Layers[3].(*Dense).Mask != nil {
		t.Fatal("phantom mask appeared")
	}
	// Behavioural equality.
	img := tensor.New(16)
	img.Fill(0.8)
	fr := []*tensor.Tensor{img}
	la := a.Logits(fr)
	lb := b.Logits(fr)
	for i := range la.Data {
		if la.Data[i] != lb.Data[i] {
			t.Fatal("masked networks diverge after round-trip")
		}
	}
}
