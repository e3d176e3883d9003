package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/approx"
	"repro/internal/defense"
	"repro/internal/dvs"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// The probes of the traced run replay the workload's own inputs through
// the public calls each layer exposes and time them; a layer's number is
// the median over repeated passes.

func newFrames() []*tensor.Tensor {
	f := make([]*tensor.Tensor, modelSteps)
	for i := range f {
		f[i] = tensor.New(2, sensorH, sensorW)
	}
	return f
}

func decodeAll(data []byte, buf, events []dvs.Event) ([]dvs.Event, error) {
	sr, err := dvs.NewStreamReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	events = events[:0]
	for {
		n, err := sr.ReadChunk(buf)
		events = append(events, buf[:n]...)
		if errors.Is(err, io.EOF) {
			return events, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func filterAll(f *defense.IncrementalAQF, events, out []dvs.Event, duration float64) ([]dvs.Event, error) {
	f.Reset(duration)
	out = out[:0]
	for lo := 0; lo < len(events); lo += chunkEvents {
		kept, err := f.Push(events[lo:min(lo+chunkEvents, len(events))])
		if err != nil {
			return nil, err
		}
		out = append(out, kept...)
	}
	return append(out, f.Flush()...), nil
}

// voxelizeAll windows the flow and voxelizes every window into frames,
// calling emit after each; it returns the window count.
func voxelizeAll(events []dvs.Event, duration float64, frames []*tensor.Tensor, emit func()) (int, error) {
	wd, err := dvs.NewWindower(windowMS, duration)
	if err != nil {
		return 0, err
	}
	n := 0
	pop := func() {
		_, start, evs := wd.Pop()
		dvs.VoxelizeWindowInto(frames, evs, sensorW, sensorH, start, windowMS)
		n++
		if emit != nil {
			emit()
		}
	}
	for _, e := range events {
		for {
			ok, err := wd.Offer(e)
			if err != nil {
				return n, err
			}
			if ok {
				break
			}
			pop()
		}
	}
	for !wd.Done() {
		pop()
	}
	return n, nil
}

// frontProbe times the serving pipeline's per-window front half —
// StreamReader.ReadChunk, IncrementalAQF.Push/Flush when the workload
// filters, and Windower + VoxelizeWindowInto — over the recordings. It
// returns the voxelized windows for the classifier probes.
func frontProbe(tr *Tracer, recs []*recording, filter bool, budget time.Duration) (map[string]float64, [][]*tensor.Tensor, error) {
	root := tr.Begin("probe.front", 0)
	defer tr.End(root)
	buf := make([]dvs.Event, chunkEvents)
	var events, filtered []dvs.Event
	frames := newFrames()
	aqf, err := defense.NewIncrementalAQF(sensorW, sensorH, recs[0].duration, defense.DefaultAQFParams(serveQt))
	if err != nil {
		return nil, nil, err
	}
	var samples [][]*tensor.Tensor
	var decodeUs, filterUs, voxUs []float64
	raw, kept, windows := 0, 0, 0
	deadline := time.Now().Add(budget)
	// Pass 0 warms up and collects the windows; the later passes are timed.
	for pass := 0; pass < 4 || time.Now().Before(deadline); pass++ {
		var dT, fT, vT time.Duration
		nw := 0
		for _, r := range recs {
			dT += tr.Time("dvs.decode", root, func() { events, err = decodeAll(r.data, buf, events) })
			if err != nil {
				return nil, nil, err
			}
			in := events
			if filter {
				fT += tr.Time("defense.incaqf", root, func() { filtered, err = filterAll(aqf, events, filtered, r.duration) })
				if err != nil {
					return nil, nil, err
				}
				in = filtered
			}
			var emit func()
			if pass == 0 {
				emit = func() {
					s := make([]*tensor.Tensor, len(frames))
					for i, f := range frames {
						s[i] = tensor.FromSlice(append([]float32(nil), f.Data...), f.Shape...)
					}
					samples = append(samples, s)
				}
				raw += len(events)
				kept += len(in)
			}
			var n int
			vT += tr.Time("dvs.voxelize", root, func() { n, err = voxelizeAll(in, r.duration, frames, emit) })
			if err != nil {
				return nil, nil, err
			}
			nw += n
		}
		if pass == 0 {
			windows = nw
			continue
		}
		per := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(nw) }
		decodeUs = append(decodeUs, per(dT))
		filterUs = append(filterUs, per(fT))
		voxUs = append(voxUs, per(vT))
	}
	m := map[string]float64{
		"dvs.decode_us_per_window":   median(decodeUs),
		"dvs.voxelize_us_per_window": median(voxUs),
		"dvs.events_per_window":      float64(raw) / float64(windows),
	}
	if filter {
		m["defense.incaqf_us_per_window"] = median(filterUs)
		m["defense.incaqf_kept_ratio"] = float64(kept) / float64(raw)
	}
	return m, samples, nil
}

// predictStats is the classifier probe's result for one tier and worker
// count.
type predictStats struct {
	usPerWindow     float64
	nsPerSOP        float64
	allocsPerWindow float64
}

// predictProbe times PredictBatchInto over the workload's windows in
// batches of fill, the scheduler's measured mean batch, on `workers`
// tensor workers, and attributes each batch's SOPs with the energy
// model the server uses.
func predictProbe(tr *Tracer, ckpt []byte, samples [][]*tensor.Tensor, fill int, tier snn.PrecisionTier, workers int, budget time.Duration) (predictStats, error) {
	net, err := loadDVS(ckpt)
	if err != nil {
		return predictStats{}, err
	}
	if tier == snn.TierINT8 {
		if err := net.BuildInt8Panels(); err != nil {
			return predictStats{}, err
		}
	}
	if err := net.SetTier(tier); err != nil {
		return predictStats{}, err
	}
	em := approx.NewEnergyModel(net)
	tensor.SetWorkers(workers)
	defer tensor.SetWorkers(serveWorkers)

	nb := max(1, len(samples)/fill)
	batches := make([][][]*tensor.Tensor, nb)
	sums := make([]float64, nb)
	for b := range batches {
		for i := 0; i < fill; i++ {
			s := samples[(b*fill+i)%len(samples)]
			batches[b] = append(batches[b], s)
			for _, f := range s {
				for _, v := range f.Data {
					sums[b] += float64(v)
				}
			}
		}
	}
	out := make([]int, fill)
	for b := 0; b < min(nb, 4); b++ {
		net.PredictBatchInto(batches[b], out)
	}
	name := fmt.Sprintf("snn.predict.%s.w%d", tier, workers)
	root := tr.Begin("probe."+name, 0)
	defer tr.End(root)
	var us, nsop []float64
	deadline := time.Now().Add(budget)
	for i := 0; i < 20 || time.Now().Before(deadline); i++ {
		b := i % nb
		net.ResetStats()
		d := tr.Time(name, root, func() { net.PredictBatchInto(batches[b], out) })
		sops, _ := em.BatchSOPs(net, sums[b], fill)
		us = append(us, float64(d)/float64(time.Microsecond)/float64(fill))
		if sops > 0 {
			nsop = append(nsop, float64(d)/sops)
		}
	}
	const allocReps = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocReps; i++ {
		net.PredictBatchInto(batches[i%nb], out)
	}
	runtime.ReadMemStats(&m1)
	return predictStats{
		usPerWindow:     median(us),
		nsPerSOP:        median(nsop),
		allocsPerWindow: float64(m1.Mallocs-m0.Mallocs) / float64(allocReps*fill),
	}, nil
}

// gemmProbe times the two GEMM kernels at the shape of DVSNet's largest
// convolution lowering: conv2 of the lite preset (8→16 channels, 3×3)
// on the 8×8 map of a 32×32 sensor, for one time step of a batch of fill
// windows. The activation panel is binary spikes at 15% density, as the
// LIF layer feeding conv2 produces.
func gemmProbe(tr *Tracer, fill int, seed uint64, budget time.Duration) (fp32, q8 float64) {
	m, k, n := fill*8*8, 8*3*3, 16
	r := rng.New(seed)
	a := tensor.New(m, k)
	for i := range a.Data {
		if r.Float64() < 0.15 {
			a.Data[i] = 1
		}
	}
	b := tensor.New(k, n)
	for i := range b.Data {
		b.Data[i] = r.NormFloat32() * 0.1
	}
	codes := make([]int8, n*k)
	for i := range codes {
		codes[i] = int8(r.Intn(255) - 127)
	}
	steps := make([]float32, n)
	for i := range steps {
		steps[i] = 0.001
	}
	dst := tensor.New(m, n)
	dstI := make([]float32, m*n)
	var sc tensor.Int8Scratch
	root := tr.Begin("probe.gemm", 0)
	defer tr.End(root)
	time1 := func(name string, fn func()) float64 {
		fn()
		var ns []float64
		deadline := time.Now().Add(budget / 2)
		for i := 0; i < 50 || time.Now().Before(deadline); i++ {
			ns = append(ns, float64(tr.Time(name, root, fn)))
		}
		return median(ns) / float64(m*k*n)
	}
	fp32 = time1("tensor.gemm.fp32", func() { tensor.MatMulInto(dst, a, b) })
	q8 = time1("tensor.gemm.int8", func() { tensor.MatMulInt8Into(dstI, a.Data, m, k, codes, steps, n, &sc) })
	return fp32, q8
}
