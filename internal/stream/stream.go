// Package stream is the bounded-memory event-serving pipeline: it
// decodes an AEDAT recording chunk by chunk (dvs.StreamReader),
// optionally denoises the flow (cross-window defense.IncrementalAQF),
// slices the event flow into fixed-duration windows (dvs.Windower),
// voxelizes windows into recycled frame tensors (dvs.VoxelizeWindowInto)
// and classifies them through the batched inference arena
// (snn.PredictBatchInto), fanning window batches out over the shared
// tensor worker pool — with clones either owned per pipeline or drawn
// from a shared bounded CloneSource (internal/serve's session pool).
// In producer mode (Options.Scheduler) the pipeline keeps the
// read → filter → voxelize half and hands classification to a shared
// Scheduler that coalesces ready windows from all sessions into
// continuous batches — see Scheduler.
//
// The memory and allocation contract, pinned by the property tests:
//
//   - Peak state is O(Workers × Batch × window) — chunk buffer, window
//     slots and arena scratch — independent of recording length; a
//     recording arbitrarily larger than the chunk buffer streams
//     through in constant space. The frame tensors (the dominant term)
//     live in a SlotPool that concurrent pipelines can share, so a
//     serving tier's frame memory scales with the pool, not with the
//     session count.
//   - Steady state performs 0 tensor allocations per window (without
//     AQF): slots, frames, clones and arenas are recycled; only the
//     per-recording setup (reader, windower) allocates.
//
// Predictions are bit-identical to the in-memory reference — splitting
// the loaded recording with dvs.SplitWindows, voxelizing each window
// and running PredictBatch — at any worker count, chunk size and batch
// size: windows are classified independently and the batched arena
// forward is per-sample exact, so scheduling can never change a class.
package stream

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/defense"
	"repro/internal/dvs"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// Options configure a Pipeline.
type Options struct {
	// WindowMS is the prediction cadence: the flow is classified once
	// per WindowMS of recording time. Required (> 0).
	WindowMS float64
	// Steps is the number of voxel bins per window; 0 uses the
	// network's configured time steps.
	Steps int
	// Workers bounds how many window batches are classified
	// concurrently (each on its own weight-sharing network clone);
	// <= 0 uses the shared pool's budget (tensor.Workers()).
	Workers int
	// Batch is how many windows one PredictBatchInto call classifies;
	// <= 0 uses 4.
	Batch int
	// ChunkEvents is the reader chunk size in events; <= 0 uses 4096.
	ChunkEvents int
	// ReorderWindow tolerates mildly out-of-order recordings: events
	// displaced at most this many positions from their time-sorted
	// place are re-sorted on the fly (dvs.StreamReaderOptions); worse
	// disorder is an error. 0 requires sorted input.
	ReorderWindow int
	// AQF, when non-nil, denoises the flow through the cross-window
	// defense.IncrementalAQF: correlation state and hot-pixel runs
	// carry across window boundaries and the per-window predictions
	// match classifying dvs.SplitWindows over the whole-stream
	// defense.AQF output. The filter runs ahead of the windower, so
	// windows see quantized timestamps, exactly as the in-memory
	// reference does. Filtering allocates — the zero-alloc contract
	// covers the unfiltered path.
	AQF *defense.AQFParams
	// Clones, when non-nil, supplies the evaluation networks classify
	// runs on instead of the pipeline growing its own Workers clones —
	// the serving form: many concurrent pipelines share one bounded
	// clone pool (internal/serve), and a checkpoint hot-swap refreshes
	// clones between batches. AcquireClone may block until a clone is
	// free; every acquired clone is released after its batch.
	Clones CloneSource
	// Slots, when non-nil, is the shared pool the pipeline draws its
	// window-batch frame slots from — the serving form: all sessions'
	// frame memory is bounded by the pool instead of growing with the
	// session count. Its batch width must match Batch. When nil the
	// pipeline builds a private pool of Workers slots, which never
	// blocks (at most Workers batches classify concurrently).
	Slots *SlotPool
	// Scheduler, when non-nil, switches the pipeline into producer
	// mode — the cross-session continuous-batching split: the pipeline
	// keeps the whole read → filter → voxelize half but submits every
	// voxelized window to the shared Scheduler instead of classifying
	// on its own clones, and the scheduler coalesces windows from all
	// producers into shared GEMMs (see Scheduler). Results are
	// bit-identical to the private path: the batched arena forward is
	// per-sample exact, so batch composition cannot change a class.
	// Mutually exclusive with Clones and Slots (the scheduler owns the
	// clone source and the frame memory); Steps must match the
	// scheduler's uniform step count.
	Scheduler *Scheduler
	// Observer, when non-nil, receives one ObserveRound per
	// classification round — the serving tier's latency/throughput
	// tap. In producer mode the round latency includes the scheduler
	// round trip (submit → coalesced classify → demux), which is the
	// latency a session actually experiences. The calls happen on the
	// pipeline's Run goroutine, outside the reproducible kernels;
	// implementations must not block.
	Observer Observer
	// SensorW/SensorH, when set, are the sensor resolution the network
	// was built for: Run rejects any recording that declares different
	// dimensions (a mismatched frame layout would otherwise alias into
	// the network's input buffer and classify garbage). When zero, the
	// first recording's dimensions are adopted and every later Run must
	// match them.
	SensorW, SensorH int
	// Tier is the precision tier this pipeline classifies on
	// (snn.TierFP32 by default). TierINT8 requires int8 panels: on the
	// served network for pipeline-owned clones, or a CloneSource /
	// Scheduler whose clone source implements TierCloneSource.
	Tier snn.PrecisionTier
	// Energy, when non-nil, attributes estimated synaptic operations
	// (SOPs) to every classified window: Result.SOPs carries each
	// window's share of its batch's total, split proportionally to the
	// windows' input activity. The accounting is an estimate — spiking
	// statistics are aggregated per batch, so a window's SOPs can vary
	// with the batch it rode in — and is allocation-free in the steady
	// state. The serve tier passes its per-checkpoint energy model.
	Energy EnergyAccount
}

// EnergyAccount attributes a batch's synaptic work. The approx
// package's EnergyModel is the canonical implementation; the interface
// keeps stream free of the approx dependency. BatchSOPs runs on the
// classification hot path and must not allocate or block.
type EnergyAccount interface {
	// BatchSOPs returns the performed and unpruned-baseline SOP counts
	// of the batch net just classified: the caller reset spike
	// statistics before the forward and supplies the batch's total
	// input activity and sample count.
	BatchSOPs(net *snn.Network, inputSum float64, batch int) (sops, possible float64)
}

// TierCloneSource is a CloneSource that can hand out clones pinned to
// a precision tier — the serve pool implements it so INT8 sessions
// draw int8-panel clones from the same bounded pool FP32 sessions use.
type TierCloneSource interface {
	CloneSource
	// SupportsTier reports whether AcquireCloneTier can serve tier t.
	SupportsTier(t snn.PrecisionTier) bool
	// AcquireCloneTier is AcquireClone with the clone switched to tier
	// t before it is returned.
	AcquireCloneTier(t snn.PrecisionTier) *snn.Network
}

// DefaultBatch is the window-batch width used when Options.Batch is
// unset; serve sizes its shared SlotPool with the same resolution
// rule.
const DefaultBatch = 4

// Observer taps a pipeline's classification rounds for telemetry. One
// round is one flush: up to Workers×Batch windows voxelized and
// predicted across the worker pool. The latency covers the whole round
// — including any wait for shared clone/slot pool units, which is
// exactly the cross-session contention a serving tier wants to see —
// but excludes upload pacing and consumer stalls, which are the
// client's own doing.
type Observer interface {
	// ObserveRound reports one classification round of `windows`
	// windows that took latencyNs wall-clock nanoseconds.
	ObserveRound(windows int, latencyNs int64)
}

// CloneSource hands out weight-sharing evaluation clones of a served
// model. Implementations are safe for concurrent use; the serve
// package's bounded pool is the canonical one.
type CloneSource interface {
	// AcquireClone returns a clone to classify one batch on, blocking
	// until one is free.
	AcquireClone() *snn.Network
	// ReleaseClone returns a clone obtained from AcquireClone.
	ReleaseClone(*snn.Network)
}

// withDefaults resolves the optional fields against a network.
func (o Options) withDefaults(net *snn.Network) (Options, error) {
	if o.WindowMS <= 0 {
		return o, fmt.Errorf("stream: WindowMS must be positive, got %v", o.WindowMS)
	}
	if (o.SensorW == 0) != (o.SensorH == 0) || o.SensorW < 0 || o.SensorH < 0 {
		return o, fmt.Errorf("stream: SensorW/SensorH must be set together, got %dx%d", o.SensorW, o.SensorH)
	}
	if o.Steps <= 0 {
		o.Steps = net.Cfg.Steps
	}
	if o.Workers <= 0 {
		o.Workers = tensor.Workers()
	}
	if o.Batch <= 0 {
		o.Batch = DefaultBatch
	}
	if o.ChunkEvents <= 0 {
		o.ChunkEvents = 4096
	}
	if o.ReorderWindow < 0 {
		o.ReorderWindow = 0
	}
	if o.Slots != nil && o.Slots.Batch() != o.Batch {
		return o, fmt.Errorf("stream: shared SlotPool covers %d-window batches, pipeline wants %d",
			o.Slots.Batch(), o.Batch)
	}
	if o.Scheduler != nil {
		if o.Clones != nil {
			return o, fmt.Errorf("stream: Scheduler and Clones are mutually exclusive (the scheduler owns the clone source)")
		}
		if o.Slots != nil {
			return o, fmt.Errorf("stream: Scheduler and Slots are mutually exclusive (the scheduler owns the frame memory)")
		}
		if o.Steps != o.Scheduler.Steps() {
			return o, fmt.Errorf("stream: pipeline voxelizes %d steps, scheduler serves %d", o.Steps, o.Scheduler.Steps())
		}
		if o.Tier != snn.TierFP32 && !o.Scheduler.supportsTier(o.Tier) {
			return o, fmt.Errorf("stream: scheduler's clone source cannot serve the %v tier", o.Tier)
		}
	}
	if o.Tier != snn.TierFP32 && o.Clones != nil {
		ts, ok := o.Clones.(TierCloneSource)
		if !ok || !ts.SupportsTier(o.Tier) {
			return o, fmt.Errorf("stream: clone source cannot serve the %v tier", o.Tier)
		}
	}
	return o, nil
}

// Result is one window's prediction.
type Result struct {
	// Window is the window index (Window*WindowMS is its start).
	Window int
	// StartMS is the window's opening timestamp in milliseconds.
	StartMS float64
	// Events is how many events were voxelized (post-filter).
	Events int
	// Class is the predicted class.
	Class int
	// SOPs is the window's estimated synaptic-operation count — its
	// activity-weighted share of the batch it classified in — or 0
	// when the pipeline runs without Options.Energy. Unlike Class it
	// is an estimate, not deterministic across batch compositions.
	SOPs float64
}

// slot is one recycled in-flight staging window: its events (copied
// out of the windower) and its result fields. The frame tensors the
// events voxelize into are NOT here — they live in pooled BatchSlots,
// acquired only while a batch actually classifies. The split is
// deliberate: event staging must be held while the session reads its
// input (so it stays per-pipeline and cannot be pinned by a slow
// uploader), while the far heavier frame memory is borrowed for the
// classification instant and shared across sessions.
type slot struct {
	index  int
	start  float64
	events []dvs.Event
	kept   int // events voxelized
}

// Pipeline is a reusable streaming classifier: construct once per
// model, Run once per recording. Between recordings every buffer —
// window slots, frame tensors, network clones, inference arenas — is
// retained, so the steady state allocates nothing per window. A
// Pipeline is not safe for concurrent Runs; concurrent serving uses
// one Pipeline per goroutine (clones share the trained weights).
type Pipeline struct {
	net    *snn.Network
	o      Options
	clones []*snn.Network // one per worker; weight-sharing evaluation clones (nil with o.Clones)
	slots  []*slot        // Workers×Batch recycled staging windows
	pool   *SlotPool      // frame memory: o.Slots or a private Workers-sized pool
	chunk  []dvs.Event
	out    []int // per-round predictions, aligned with slots
	inc    *defense.IncrementalAQF
	prod   *Producer // producer mode (o.Scheduler): the shared-classifier handle

	// Tier/energy plumbing: the tiered view of o.Clones (nil when the
	// pipeline runs FP32 or owns its clones), and the per-slot SOP
	// estimates plus per-batch input-activity scratch, preallocated so
	// the accounting rides the zero-alloc hot path.
	tierSrc TierCloneSource
	sops    []float64 // per-round SOP estimates, aligned with slots
	insums  []float64 // per-slot input-activity scratch for the split

	// classify's bound-method closure, created once so the steady-state
	// flush does not allocate; runH/runW are the current recording's
	// sensor dims, set at the top of Run.
	body       func(lo, hi int)
	runH, runW int

	// classify may run on shared pool worker goroutines, where an
	// uncaught panic would kill the whole process (a serving tier must
	// fail the session, not the server). Panics are captured here and
	// surfaced as flush errors on the caller's goroutine.
	panicMu  sync.Mutex
	panicErr error //axsnn:guardedby panicMu
}

// NewPipeline builds a streaming classifier over net. The network is
// used read-only: every worker classifies on a CloneArchitecture clone
// sharing the trained weights.
func NewPipeline(net *snn.Network, o Options) (*Pipeline, error) {
	o, err := o.withDefaults(net)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{net: net, o: o}
	if o.Scheduler == nil {
		if o.Clones == nil {
			p.clones = make([]*snn.Network, o.Workers)
			for i := range p.clones {
				p.clones[i] = net.CloneArchitecture()
				if err := p.clones[i].SetTier(o.Tier); err != nil {
					return nil, fmt.Errorf("stream: %w", err)
				}
			}
		} else if o.Tier != snn.TierFP32 {
			p.tierSrc = o.Clones.(TierCloneSource) // validated in withDefaults
		}
		p.pool = o.Slots
		if p.pool == nil {
			// Private pool: at most min(tensor.Workers(), Workers) batches
			// classify concurrently, so Workers slots can never block.
			p.pool = NewSlotPool(o.Workers, o.Batch)
		}
	}
	p.slots = make([]*slot, o.Workers*o.Batch)
	for i := range p.slots {
		p.slots[i] = &slot{}
	}
	p.chunk = make([]dvs.Event, o.ChunkEvents)
	p.out = make([]int, len(p.slots))
	p.sops = make([]float64, len(p.slots))
	p.insums = make([]float64, len(p.slots))
	p.body = p.classify
	if o.Scheduler != nil {
		// Producer mode: the round width bounds this pipeline's windows
		// in flight at the scheduler, so the completion channel sized to
		// it can never block the shared demux.
		p.prod = o.Scheduler.NewProducer(len(p.slots))
		p.prod.tier = o.Tier
	}
	return p, nil
}

// Run streams one AEDAT recording from r and calls emit for every
// window, in window order. The recording's sensor must match what the
// network was built for; emit returning an error aborts the run.
func (p *Pipeline) Run(r io.Reader, emit func(Result) error) error {
	sr, err := dvs.NewStreamReaderOptions(r, dvs.StreamReaderOptions{ReorderWindow: p.o.ReorderWindow})
	if err != nil {
		return err
	}
	h, w := sr.H(), sr.W()
	// The frame layout is (2, H, W): a recording with the wrong sensor
	// would alias into the network's input buffer and classify garbage,
	// so dimensions are pinned — by Options.SensorW/H when declared, by
	// the first recording otherwise.
	if p.o.SensorW == 0 && p.o.SensorH == 0 {
		p.o.SensorW, p.o.SensorH = w, h
	}
	if w != p.o.SensorW || h != p.o.SensorH {
		return fmt.Errorf("stream: recording declares a %dx%d sensor, pipeline serves %dx%d",
			w, h, p.o.SensorW, p.o.SensorH)
	}
	win, err := dvs.NewWindower(p.o.WindowMS, sr.Duration())
	if err != nil {
		return err
	}
	p.runH, p.runW = h, w
	if p.o.AQF != nil {
		// The incremental filter runs ahead of the windower: windows
		// are cut on quantized timestamps, exactly as splitting the
		// whole-stream AQF output would cut them. The filter is built
		// once the sensor is pinned and recycled across recordings.
		if p.inc == nil {
			p.inc, err = defense.NewIncrementalAQF(w, h, sr.Duration(), *p.o.AQF)
			if err != nil {
				return err
			}
		} else {
			p.inc.Reset(sr.Duration())
		}
	}

	ready := 0
	// takeWindow pops the windower's current window into the next free
	// slot, flushing a full round of slots through the classifiers.
	takeWindow := func() error {
		idx, start, evs := win.Pop()
		s := p.slots[ready]
		s.index, s.start = idx, start
		s.events = append(s.events[:0], evs...)
		ready++
		if ready == len(p.slots) {
			if err := p.flush(ready, emit); err != nil {
				return err
			}
			ready = 0
		}
		return nil
	}

	// offer feeds filtered (or raw) events into the windower, flushing
	// full slot rounds as windows close.
	offer := func(events []dvs.Event) error {
		for _, e := range events {
			for {
				ok, oerr := win.Offer(e)
				if oerr != nil {
					return oerr
				}
				if ok {
					break
				}
				if err := takeWindow(); err != nil {
					return err
				}
			}
		}
		return nil
	}

	for {
		n, rerr := sr.ReadChunk(p.chunk)
		events := p.chunk[:n]
		if p.inc != nil {
			events, err = p.inc.Push(events)
			if err != nil {
				return err
			}
		}
		if err := offer(events); err != nil {
			return err
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	if p.inc != nil {
		if err := offer(p.inc.Flush()); err != nil {
			return err
		}
	}
	// The tail of the recording window: silent stretches still produce
	// (empty-window) predictions, so a run always emits NumWindows
	// results.
	for !win.Done() {
		if err := takeWindow(); err != nil {
			return err
		}
	}
	return p.flush(ready, emit)
}

// classify is the worker body: filter, voxelize and predict the slots
// in [lo, hi). Pool blocks are always grain-aligned, so every
// Batch-sized sub-range below has a unique batch index — no two
// concurrent groups ever share a network clone or an arena. (The
// serial path hands the whole range to one call; the loop re-splits
// it, so clone assignment is identical either way.)
//
//axsnn:hotpath
func (p *Pipeline) classify(lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			p.panicMu.Lock()
			if p.panicErr == nil {
				p.panicErr = fmt.Errorf("stream: window classification panicked: %v", r) //axsnn:allow-alloc panic capture: formats once per failed run
			}
			p.panicMu.Unlock()
		}
	}()
	for lo < hi {
		end := lo + p.o.Batch - lo%p.o.Batch
		if end > hi {
			end = hi
		}
		p.classifyBatch(lo, end)
		lo = end
	}
}

// classifyBatch filters, voxelizes and predicts one Batch-aligned slot
// group. It is a separate frame so the pooled units' releases are
// deferred: even a panicking classification returns the frame slot and
// the clone to their shared pools instead of draining them. Acquire
// order is fixed — BatchSlot first, then clone — and uniform across
// every session, so the two bounded pools cannot deadlock against each
// other; both are released before flush emits any result, so a session
// stalled on a slow consumer holds no pooled memory.
//
//axsnn:hotpath
func (p *Pipeline) classifyBatch(lo, end int) {
	h, w := p.runH, p.runW
	bs := p.pool.AcquireSlot()
	defer p.pool.ReleaseSlot(bs)
	var clone *snn.Network
	if p.tierSrc != nil {
		// Tiered serving mode: the pool pins the clone to this
		// pipeline's precision tier before handing it over.
		clone = p.tierSrc.AcquireCloneTier(p.o.Tier)
		defer p.o.Clones.ReleaseClone(clone)
	} else if p.o.Clones != nil {
		// Serving mode: draw a clone from the shared bounded pool
		// for just this batch. All pooled clones share the served
		// weights, so which one answers cannot change a class.
		clone = p.o.Clones.AcquireClone()
		defer p.o.Clones.ReleaseClone(clone)
	} else {
		clone = p.clones[lo/p.o.Batch]
	}
	samples := bs.Samples()
	for j, s := range p.slots[lo:end] {
		frames := bs.Frames(j, p.o.Steps, h, w)
		p.stageWindow(s, frames)
		if p.o.Energy != nil {
			p.insums[lo+j] = frameSum(frames)
		}
		samples = append(samples, frames) //axsnn:allow-alloc capped at Batch; backing array preallocated at pool construction
	}
	if p.o.Energy != nil {
		clone.ResetStats()
	}
	clone.PredictBatchInto(samples, p.out[lo:end])
	if p.o.Energy != nil {
		inputSum := 0.0
		for _, v := range p.insums[lo:end] {
			inputSum += v
		}
		total, _ := p.o.Energy.BatchSOPs(clone, inputSum, end-lo)
		splitSOPs(total, p.insums[lo:end], p.sops[lo:end])
	}
}

// frameSum totals a window's voxelized input activity — the weight its
// SOP share is split by.
//
//axsnn:hotpath
func frameSum(frames []*tensor.Tensor) float64 {
	sum := 0.0
	for _, f := range frames {
		sum += f.Sum()
	}
	return sum
}

// splitSOPs distributes a batch's total SOP estimate over its windows
// proportionally to their input activity (equal split when the whole
// batch was silent — zero activity still pays the readout's baseline).
//
//axsnn:hotpath
func splitSOPs(total float64, insums, sops []float64) {
	weight := 0.0
	for _, v := range insums {
		weight += v
	}
	for i := range sops {
		if weight > 0 {
			sops[i] = total * insums[i] / weight
		} else {
			sops[i] = total / float64(len(sops))
		}
	}
}

// stageWindow voxelizes one staged window into frames — the
// per-window half both classification paths share (private
// classifyBatch and the producer-mode submission loop), so the two are
// input-identical by construction.
//
//axsnn:hotpath
func (p *Pipeline) stageWindow(s *slot, frames []*tensor.Tensor) {
	dvs.VoxelizeWindowInto(frames, s.events, p.runW, p.runH, s.start, p.o.WindowMS)
	s.kept = len(s.events)
}

// flush classifies slots[:ready] — filter, voxelize, predict — fanning
// Batch-sized window groups out over the shared worker pool, then
// emits the results in window order. Window results are independent of
// scheduling, so any worker count yields identical classes.
//
//axsnn:hotpath
func (p *Pipeline) flush(ready int, emit func(Result) error) error {
	if ready == 0 {
		return nil
	}
	if p.prod != nil {
		return p.flushShared(ready, emit)
	}
	var t0 int64
	if p.o.Observer != nil {
		t0 = time.Now().UnixNano() //axsnn:allow-alloc observability clock read, once per round, outside the reproducible kernels
	}
	tensor.ParallelFor(ready, p.o.Batch, p.body)
	p.panicMu.Lock()
	perr := p.panicErr
	p.panicErr = nil
	p.panicMu.Unlock()
	if perr != nil {
		// A classification panic (e.g. a recording whose adopted sensor
		// mismatches the network's input layout) fails this run, not the
		// process: pool worker goroutines have no recover of their own.
		return perr
	}
	if p.o.Observer != nil {
		// Observed before the emit loop: a consumer stalling emit (a
		// credit-blocked session) must not smear the classification
		// latency other sessions are measured against.
		p.o.Observer.ObserveRound(ready, time.Now().UnixNano()-t0) //axsnn:allow-alloc observability clock read, once per round, outside the reproducible kernels
	}
	for i, s := range p.slots[:ready] {
		r := Result{Window: s.index, StartMS: s.start, Events: s.kept, Class: p.out[i], SOPs: p.sops[i]}
		if err := emit(r); err != nil {
			return err
		}
	}
	return nil
}

// flushShared is the producer-mode round: voxelize every ready slot
// into a pooled scheduler entry, submit the round, await the coalesced
// completions, emit in window order. Staging and submitting interleave
// deliberately — the scheduler can start classifying this round's
// early windows (alongside other sessions') while the later ones are
// still voxelizing.
//
//axsnn:hotpath
func (p *Pipeline) flushShared(ready int, emit func(Result) error) error {
	var t0 int64
	if p.o.Observer != nil {
		t0 = time.Now().UnixNano() //axsnn:allow-alloc observability clock read, once per round, outside the reproducible kernels
	}
	submitted := 0
	var serr error
	for i := 0; i < ready; i++ {
		e, err := p.prod.takeEntry()
		if err != nil {
			serr = err
			break
		}
		p.stageWindow(p.slots[i], p.prod.frames(e, p.runH, p.runW))
		p.prod.submit(e, i)
		submitted++
	}
	// Await everything actually submitted even on a mid-round error:
	// in-flight entries must come home before the round unwinds.
	if err := p.prod.await(submitted); err != nil && serr == nil {
		serr = err
	}
	if serr != nil {
		return serr
	}
	if p.o.Observer != nil {
		// Observed before the emit loop, like the private path: a
		// credit-stalled consumer must not smear the classification
		// latency. Unlike the private path the round includes the
		// scheduler queue wait — the latency a session actually sees.
		p.o.Observer.ObserveRound(ready, time.Now().UnixNano()-t0) //axsnn:allow-alloc observability clock read, once per round, outside the reproducible kernels
	}
	for i, s := range p.slots[:ready] {
		r := Result{Window: s.index, StartMS: s.start, Events: s.kept, Class: p.prod.out[i], SOPs: p.prod.sops[i]}
		if err := emit(r); err != nil {
			return err
		}
	}
	return nil
}

// Predict streams one recording through a fresh pipeline and collects
// the per-window results — the convenience form; long-lived serving
// builds a Pipeline once and Runs it per recording.
func Predict(r io.Reader, net *snn.Network, o Options) ([]Result, error) {
	p, err := NewPipeline(net, o)
	if err != nil {
		return nil, err
	}
	var out []Result
	if err := p.Run(r, func(res Result) error {
		out = append(out, res)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictFile is Predict over an .aedat file.
func PredictFile(path string, net *snn.Network, o Options) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Predict(f, net, o)
}
