package main

import (
	"bytes"
	"fmt"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/dvs"
	"repro/internal/encoding"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// Geometry shared by every workload. The served model is the harness's
// DVSNet on the default 32×32 gesture sensor, and the recordings use the
// dataset's default gesture settings, background noise included.
// Windows are 10 ms, not axsnn-serve's default 600 ms, so that two
// sessions replaying in sensor time produce enough windows for a p99
// with ten samples beyond it within one run.
const (
	sensorW, sensorH = 32, 32
	modelSteps       = 4
	windowMS         = 10.0
	// chunkEvents is the server's reader chunk, not axsnn-serve's default
	// 4096: the reader blocks until a chunk fills, so at 1× sensor time a
	// small chunk keeps that wait to a few milliseconds.
	chunkEvents = 16
	// serveQt is the serving AQF's timestamp quantization (seconds),
	// a tenth of a window; sweepQt is the paper's Table II step.
	serveQt = 0.001
	sweepQt = 0.01
)

func gestureConfig() dvs.GestureConfig {
	cfg := dvs.DefaultGestureConfig()
	cfg.W, cfg.H = sensorW, sensorH
	return cfg
}

// recording is one AEDAT recording with the schedule data the paced
// generator needs and, once the workload computes it, its reference.
type recording struct {
	data     []byte
	events   []dvs.Event // decoded back from data, in file order
	duration float64
	header   int // byte offset of the first event record
	recSize  int // bytes per event record
	// closeMS[k] is the sensor time of the first event at or past window
	// k's end, or the recording's duration when no event follows.
	closeMS []float64
	ref     []stream.Result
}

// newRecording encodes s and derives its byte layout and window closes
// from the encoded form, so the schedule matches what the server reads.
func newRecording(s *dvs.Stream) (*recording, error) {
	var buf, empty bytes.Buffer
	if err := dvs.WriteAEDAT(&buf, s); err != nil {
		return nil, err
	}
	if err := dvs.WriteAEDAT(&empty, &dvs.Stream{W: s.W, H: s.H, Duration: s.Duration}); err != nil {
		return nil, err
	}
	back, err := dvs.ReadAEDAT(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	if len(back.Events) == 0 {
		return nil, fmt.Errorf("recording has no events")
	}
	r := &recording{
		data: buf.Bytes(), events: back.Events, duration: back.Duration,
		header: empty.Len(), recSize: (buf.Len() - empty.Len()) / len(back.Events),
	}
	nw := dvs.NumWindows(back.Duration, windowMS)
	r.closeMS = make([]float64, nw)
	i := 0
	for k := range r.closeMS {
		end := float64(k+1) * windowMS
		for i < len(back.Events) && back.Events[i].T < end {
			i++
		}
		r.closeMS[k] = back.Duration
		if i < len(back.Events) {
			r.closeMS[k] = back.Events[i].T
		}
	}
	return r, nil
}

// gestureFlow concatenates synthetic gestures of the given classes into
// one continuous recording, each gesture seeded from seed. With
// frameAttack the Frame attack floods the sensor border once per window.
func gestureFlow(classes []int, frameAttack bool, seed uint64) (*dvs.Stream, error) {
	cfg := gestureConfig()
	segs := make([]*dvs.Stream, len(classes))
	for k, class := range classes {
		segs[k] = dvs.GenerateGesture(class, cfg, rng.New(seed^uint64(k+1)*0x9e3779b97f4a7c15))
	}
	flow, err := dvs.ConcatStreams(segs...)
	if err != nil {
		return nil, err
	}
	if frameAttack {
		f := &attack.Frame{Bins: dvs.NumWindows(flow.Duration, windowMS), Thickness: 1}
		flow = f.Perturb(nil, flow, 0)
	}
	return flow, nil
}

// recordings generates n distinct recordings of `segments` gestures each
// from seed. The gestures run through a seeded permutation of the
// classes, over and over, so any dvs.GestureClasses consecutive gestures
// of the pool hold every class once. Gesture classes differ in how many
// events they make, so every seed gets the same class mix; the seed
// varies the order and the gestures themselves.
func recordings(n, segments int, frameAttack bool, seed uint64) ([]*recording, error) {
	perm := rng.New(seed).Perm(dvs.GestureClasses)
	out := make([]*recording, n)
	for i := range out {
		classes := make([]int, segments)
		for k := range classes {
			classes[k] = perm[(i*segments+k)%len(perm)]
		}
		flow, err := gestureFlow(classes, frameAttack, seed*1000+uint64(i))
		if err != nil {
			return nil, err
		}
		if out[i], err = newRecording(flow); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// warmMS is the length of the set-up's warm-up recording: a few windows,
// so that set-up time is the set-up work up to the first warm results,
// not the classification of a whole recording.
const warmMS = 4 * windowMS

// warmRecording is the first warmMS of a seeded one-gesture recording.
func warmRecording(frameAttack bool, seed uint64) (*recording, error) {
	flow, err := gestureFlow([]int{rng.New(seed).Intn(dvs.GestureClasses)}, frameAttack, seed)
	if err != nil {
		return nil, err
	}
	cut := &dvs.Stream{W: flow.W, H: flow.H, Duration: warmMS}
	for _, e := range flow.Events {
		if e.T < warmMS {
			cut.Events = append(cut.Events, e)
		}
	}
	return newRecording(cut)
}

func newDVSNet() *snn.Network {
	return snn.DVSNet(snn.DefaultConfig(1.0, modelSteps), sensorH, sensorW, dvs.GestureClasses, true,
		rng.New(1), rng.New(2))
}

// modelSeed trains the checkpoints every run serves. The models stand for
// the deployed artifacts and stay fixed; --seed varies the traffic, so
// runs with different seeds measure the same program on different inputs.
const modelSeed = 1

// trainDVS fits the gesture classifier on a seeded training set and
// returns its checkpoint. The checkpoint is an input of the workloads:
// set-up time starts at building a network from it.
func trainDVS(seed uint64) ([]byte, error) {
	net := snn.DVSNet(snn.DefaultConfig(1.0, modelSteps), sensorH, sensorW, dvs.GestureClasses, true,
		rng.New(seed+1), rng.New(seed+2))
	train := dvs.GenerateGestureSet(44, gestureConfig(), seed+3)
	frames := make([][]*tensor.Tensor, train.Len())
	labels := make([]int, train.Len())
	for i, sm := range train.Samples {
		frames[i] = sm.Stream.Voxelize(modelSteps)
		labels[i] = sm.Label
	}
	snn.TrainFrames(net, frames, labels, snn.TrainOptions{
		Epochs: 4, BatchSize: 8, Optimizer: snn.NewAdam(3e-3), Seed: seed + 4,
	})
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// loadDVS builds the gesture network and loads a checkpoint into it.
func loadDVS(ckpt []byte) (*snn.Network, error) {
	net := newDVSNet()
	if err := net.Load(bytes.NewReader(ckpt)); err != nil {
		return nil, fmt.Errorf("loading gesture checkpoint: %w", err)
	}
	return net, nil
}

// Static-image model of the paper's PGD experiments: the lite MNIST
// network on the synthetic 16×16 digits, rate-coded over 8 steps.
const staticSteps = 8

func newMNISTNet() *snn.Network {
	return snn.MNISTNet(snn.DefaultConfig(1.0, staticSteps), 1, 16, 16, true, rng.New(1))
}

func trainMNIST(train *dataset.Set, seed uint64) ([]byte, error) {
	net := snn.MNISTNet(snn.DefaultConfig(1.0, staticSteps), 1, 16, 16, true, rng.New(seed+1))
	snn.Train(net, train, snn.TrainOptions{
		Epochs: 2, BatchSize: 16, Optimizer: snn.NewAdam(3e-3), Encoder: encoding.Rate{}, Seed: seed + 2,
	})
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func loadMNIST(ckpt []byte) (*snn.Network, error) {
	net := newMNISTNet()
	if err := net.Load(bytes.NewReader(ckpt)); err != nil {
		return nil, fmt.Errorf("loading static checkpoint: %w", err)
	}
	return net, nil
}
