// Command axsnn-stream serves event recordings through the streaming
// pipeline: bounded-memory AEDAT decode, fixed-duration windowing,
// optional cross-window AQF denoising, and batched zero-alloc inference
// over the shared worker pool — one class prediction per window,
// however long the recording runs.
//
// Usage:
//
//	axsnn-stream [-window 100] [-steps 8] [-workers 0] [-chunk 4096]
//	             [-batch 4] [-reorder 1024] [-qt -1]
//	             [-train 33] [-epochs 4] [-segments 12] [-seed N]
//	             [file.aedat ...]
//
// A small gesture classifier is trained on synthetic 32×32 DVS streams
// first; the given .aedat files (which must be 32×32) are then
// streamed through it. With no files, a long synthetic flow of
// -segments back-to-back gestures is generated and streamed, printing
// the per-window timeline — a recording several times larger than the
// chunk buffer served in O(window) memory.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/defense"
	"repro/internal/dvs"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/stream"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("axsnn-stream: ")

	window := flag.Float64("window", 600, "prediction window (ms)")
	steps := flag.Int("steps", 8, "voxel time bins per window")
	workers := flag.Int("workers", 0, "concurrent window predictors (0 = all cores, 1 = deterministic serial)")
	chunk := flag.Int("chunk", 4096, "reader chunk size (events)")
	batch := flag.Int("batch", 4, "windows per batched inference call")
	reorder := flag.Int("reorder", 1024, "reorder-buffer capacity for mildly unsorted recordings (0 = require sorted)")
	qt := flag.Float64("qt", -1, "AQF quantization step in seconds; < 0 disables filtering")
	trainN := flag.Int("train", 33, "synthetic training streams for the classifier")
	epochs := flag.Int("epochs", 4, "training epochs")
	segments := flag.Int("segments", 12, "gesture segments in the synthetic demo flow (no input files)")
	seed := flag.Uint64("seed", 4, "seed")
	flag.Parse()
	tensor.SetWorkers(*workers)

	// Train a quick classifier on synthetic gestures recorded at the
	// window duration, so a training sample and a serving window share
	// the same temporal binning; its time steps are the per-window
	// voxel bins.
	gcfg := dvs.DefaultGestureConfig()
	gcfg.Duration = *window
	train := dvs.GenerateGestureSet(*trainN, gcfg, *seed)
	net := snn.DVSNet(snn.DefaultConfig(1.0, *steps), gcfg.H, gcfg.W, dvs.GestureClasses, true,
		rng.New(*seed+1), rng.New(*seed+2))
	frames := make([][]*tensor.Tensor, train.Len())
	labels := make([]int, train.Len())
	for i, sm := range train.Samples {
		frames[i] = sm.Stream.Voxelize(*steps)
		labels[i] = sm.Label
	}
	fmt.Printf("training %d-stream gesture classifier (%d epochs, %d steps)...\n", *trainN, *epochs, *steps)
	snn.TrainFrames(net, frames, labels, snn.TrainOptions{
		Epochs: *epochs, BatchSize: 8, Optimizer: snn.NewAdam(3e-3), Seed: *seed + 3,
	})

	opts := stream.Options{
		WindowMS: *window, Steps: *steps, Workers: *workers,
		Batch: *batch, ChunkEvents: *chunk, ReorderWindow: *reorder,
		SensorW: gcfg.W, SensorH: gcfg.H,
	}
	if *qt >= 0 {
		// The cross-window incremental AQF: whole-stream filter
		// semantics at streaming memory cost.
		p := defense.DefaultAQFParams(*qt)
		opts.AQF = &p
	}
	p, err := stream.NewPipeline(net, opts)
	if err != nil {
		log.Fatal(err)
	}

	if flag.NArg() == 0 {
		data, truth := demoFlow(*segments, gcfg, *seed+7)
		fmt.Printf("\nstreaming synthetic flow: %d segments, %.1fs, %d bytes (chunk buffer %d bytes)\n",
			*segments, float64(*segments)*gcfg.Duration/1000, len(data), *chunk*16)
		serve(p, "synthetic", bytes.NewReader(data), *window, truth, gcfg.Duration)
		return
	}
	for _, path := range flag.Args() {
		// Run itself rejects recordings whose sensor does not match the
		// pipeline's declared dimensions.
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		serve(p, path, f, *window, nil, 0)
		f.Close()
	}
}

// demoFlow concatenates back-to-back synthetic gestures into one long
// recording, returning its AEDAT bytes and the true class per segment.
func demoFlow(segments int, gcfg dvs.GestureConfig, seed uint64) ([]byte, []int) {
	truth := make([]int, segments)
	segs := make([]*dvs.Stream, segments)
	for k := range segs {
		truth[k] = int(rng.New(seed + uint64(k)).Intn(dvs.GestureClasses))
		segs[k] = dvs.GenerateGesture(truth[k], gcfg, rng.New(seed+100+uint64(k)))
	}
	flow, err := dvs.ConcatStreams(segs...)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dvs.WriteAEDAT(&buf, flow); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes(), truth
}

// serve streams one recording and prints the windowed timeline.
func serve(p *stream.Pipeline, name string, r io.Reader, windowMS float64, truth []int, segMS float64) {
	events, windows, hits, judged := 0, 0, 0, 0
	startT := time.Now()
	err := p.Run(r, func(res stream.Result) error {
		events += res.Events
		windows++
		label := ""
		if truth != nil {
			seg := int(res.StartMS / segMS)
			if seg < len(truth) {
				judged++
				if res.Class == truth[seg] {
					hits++
					label = " ✓"
				} else {
					label = fmt.Sprintf(" ✗ (true %s)", dvs.GestureNames[truth[seg]])
				}
			}
		}
		fmt.Printf("  [%7.0f ms] window %3d: %-22s %5d events%s\n",
			res.StartMS, res.Window, dvs.GestureNames[res.Class%dvs.GestureClasses], res.Events, label)
		return nil
	})
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	el := time.Since(startT)
	fmt.Printf("%s: %d windows, %d events in %v (%.0f events/s, %.1f windows/s)\n",
		name, windows, events, el.Round(time.Millisecond),
		float64(events)/el.Seconds(), float64(windows)/el.Seconds())
	if judged > 0 {
		fmt.Printf("windowed accuracy against segment truth: %.1f%% (%d/%d)\n",
			100*float64(hits)/float64(judged), hits, judged)
	}
}
