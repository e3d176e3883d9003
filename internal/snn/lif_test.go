package snn

import (
	"testing"

	"repro/internal/tensor"
)

// lifStep advances l one step over a single-sample batch x.
func lifStep(l *LIF, s *Scratch, x *tensor.Tensor, t int, train bool) *tensor.Tensor {
	return l.forward(x, s, 0, t, train)
}

func TestLIFIntegratesAndFires(t *testing.T) {
	l := NewLIF(1.0, 1.0, 4) // no leak
	s := passScratch()
	in := tensor.FromSlice([]float32{0.4}, 1, 1)
	// 0.4, 0.8, 1.2 -> fire on third step
	for step := 0; step < 2; step++ {
		out := lifStep(l, s, in, step, false)
		if out.Data[0] != 0 {
			t.Fatalf("fired too early at step %d", step)
		}
	}
	out := lifStep(l, s, in, 2, false)
	if out.Data[0] != 1 {
		t.Fatal("expected spike on third step")
	}
	// Soft reset: V = 1.2 - 1.0 = 0.2, next step 0.6 -> no spike.
	out = lifStep(l, s, in, 3, false)
	if out.Data[0] != 0 {
		t.Fatal("soft reset failed")
	}
}

func TestLIFLeakPreventsFiring(t *testing.T) {
	l := NewLIF(1.0, 0.5, 4)
	s := passScratch()
	in := tensor.FromSlice([]float32{0.4}, 1, 1)
	// With λ=0.5 the membrane converges to 0.8 < 1.0: never fires.
	for step := 0; step < 50; step++ {
		if lifStep(l, s, in, step, false).Data[0] != 0 {
			t.Fatalf("leaky neuron fired at step %d", step)
		}
	}
}

func TestLIFHighThresholdSilent(t *testing.T) {
	l := NewLIF(100, 0.9, 4)
	s := passScratch()
	in := tensor.FromSlice([]float32{1}, 1, 1)
	for step := 0; step < 20; step++ {
		if lifStep(l, s, in, step, false).Data[0] != 0 {
			t.Fatal("neuron fired despite huge threshold")
		}
	}
	if l.StatSpikes != 0 {
		t.Fatal("stat spikes should be zero")
	}
}

func TestLIFStats(t *testing.T) {
	l := NewLIF(0.5, 1.0, 4)
	s := passScratch()
	in := tensor.FromSlice([]float32{1, 0}, 1, 2)
	for step := 0; step < 4; step++ {
		lifStep(l, s, in, step, false)
	}
	if l.StatSteps != 4 || l.StatUnits != 2 {
		t.Fatalf("steps=%d units=%d", l.StatSteps, l.StatUnits)
	}
	// Neuron 0 fires every step (1 >= 0.5 immediately).
	if l.MeanSpikesPerStep() != 1 {
		t.Fatalf("mean spikes per step = %v, want 1", l.MeanSpikesPerStep())
	}
	l.ResetStats()
	if l.StatSpikes != 0 || l.StatSteps != 0 {
		t.Fatal("ResetStats incomplete")
	}
}

// TestLIFResetClearsMembrane pins that the membrane opens every pass
// at zero.
func TestLIFResetClearsMembrane(t *testing.T) {
	l := NewLIF(1.0, 1.0, 4)
	s := passScratch()
	in := tensor.FromSlice([]float32{0.9}, 1, 1)
	lifStep(l, s, in, 0, false)
	s.begin()
	// A new pass restarts the membrane from zero: 0.9 < 1.0, no spike.
	if lifStep(l, s, in, 0, false).Data[0] != 0 {
		t.Fatal("membrane survived into the next pass")
	}
}

func TestLIFSurrogatePeaksAtThreshold(t *testing.T) {
	l := NewLIF(1.0, 1.0, 4)
	s := passScratch()
	grad := tensor.FromSlice([]float32{1, 1, 1}, 1, 3)
	// Three neurons at membrane 0.2, 1.0, 1.8: surrogate is largest at
	// the threshold.
	in := tensor.FromSlice([]float32{0.2, 1.0, 1.8}, 1, 3)
	lifStep(l, s, in, 0, true)
	g := l.backward(grad, s, 0, 0, true)
	if !(g.Data[1] > g.Data[0] && g.Data[1] > g.Data[2]) {
		t.Fatalf("surrogate not peaked at threshold: %v", g.Data)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := &Flatten{}
	s := passScratch()
	x := tensor.New(1, 2, 3, 4)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	y := f.forward(x, s, 0, 0, true)
	if y.Rank() != 2 || y.Dim(0) != 1 || y.Dim(1) != 24 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	g := f.backward(y, s, 0, 0, true)
	if g.Rank() != 4 || g.Dim(1) != 2 || g.Dim(2) != 3 || g.Dim(3) != 4 {
		t.Fatalf("unflatten shape %v", g.Shape)
	}
}
