package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/snn"
	"repro/internal/tensor"
)

// Scheduler is the cross-session continuous-batching classifier: the
// shared half of the producer/classifier pipeline split. Producer-mode
// pipelines (Options.Scheduler) stop classifying their own windows;
// they voxelize each ready window into a pooled entry and submit it to
// the scheduler's bounded queue. The scheduler's single goroutine
// gathers whatever windows are ready from *all* producers each tick,
// coalesces them — padding-free, windows are uniform (steps, 2, H, W)
// per topology — into one PredictBatchInto call of up to MaxBatch
// windows, and demuxes the classes back to each producer in submission
// order. Many light sessions thus share one large GEMM per tick
// instead of issuing one tiny GEMM each, which is the continuous-
// batching idiom from LLM serving and the single biggest throughput
// lever for the many-light-users serving shape.
//
// Fairness: each tick takes at most FairShare windows per producer
// before any producer gets a second helping; the remainder stays
// queued, in order, for the next tick. A saturating session therefore
// cannot starve light ones — it is capped at FairShare windows per
// coalesced batch while light sessions' windows ride every tick.
//
// The steady state allocates nothing: entries, their frame tensors,
// the gather/sample/result buffers and the inference arena (capacity-
// based since the batch fill varies tick to tick) are all recycled.
// Completion channels are buffered to each producer's maximum
// in-flight window count and the entry pool bounds total submissions
// to the queue capacity, so neither side can block the other against
// the direction of flow: submit cannot fill the queue past its buffer,
// and demux delivery always has room.
type Scheduler struct {
	o SchedulerOptions

	// queue carries submitted entries to the scheduler goroutine; free
	// recycles completed ones back to producers. Both are sized to
	// SchedulerOptions.Queue — every live entry is in exactly one of
	// queue, free, a producer's hands or the scheduler's pending list,
	// so channel sends on either never block.
	queue chan *windowEntry
	free  chan *windowEntry

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	// Scheduler-goroutine-only tick state, preallocated to capacity at
	// construction so the tick allocates nothing.
	pending  []*windowEntry
	gathered []*windowEntry
	samples  [][]*tensor.Tensor
	out      []int
	insums   []float64 // per-sample input activity, for the SOP split
	sopsOut  []float64 // per-sample SOP estimates, aligned with out
	timer    *time.Timer

	// tierClones is the tiered view of o.Clones, nil when the source
	// cannot pin tiers (FP32-only scheduling still works).
	tierClones TierCloneSource

	// Adopted sensor dimensions: pinned by SensorW/H when declared,
	// else adopted from the first submission and confirmed by the
	// first successful batch (an unconfirmed adoption is rolled back
	// when classification panics, so one malformed session cannot
	// poison the shared classifier for everyone after it).
	h, w      int
	confirmed bool

	ticks      atomic.Int64
	windows    atomic.Int64
	deferrals  atomic.Int64
	failures   atomic.Int64
	maxPerTick atomic.Int64
	depthGauge atomic.Int64
	fillCounts []atomic.Int64 // fillCounts[n] = ticks that coalesced n windows
}

// SchedulerOptions configure a Scheduler.
type SchedulerOptions struct {
	// Steps is the voxel step count every submitted window carries —
	// the uniform-topology contract that makes coalescing padding-free.
	// Required (> 0).
	Steps int
	// MaxBatch caps how many windows one tick coalesces into a single
	// PredictBatchInto call. <= 0 uses DefaultMaxBatch.
	MaxBatch int
	// Queue bounds the submission queue (and the total entry pool):
	// producers hold at most Queue windows in flight across all
	// sessions; further submissions block until a tick drains some.
	// <= 0 uses 2×MaxBatch.
	Queue int
	// FairShare caps how many of one producer's windows a single tick
	// may take — the starvation guard. <= 0 uses max(1, MaxBatch/4).
	FairShare int
	// TickInterval, when positive, is how long a tick waits for more
	// submissions after the first before classifying a partial batch —
	// trading latency for fill. Zero classifies whatever is ready
	// immediately (greedy ticks, the default: under load the GEMM
	// itself provides the accumulation window).
	TickInterval time.Duration
	// Clones supplies the evaluation networks ticks classify on —
	// the serve tier's shared bounded pool. Required. When it also
	// implements TierCloneSource, producers may submit non-FP32
	// windows; each tick coalesces only same-tier submissions, so
	// mixed-tier sessions share the scheduler without sharing GEMMs.
	Clones CloneSource
	// Observer, when non-nil, receives one ObserveRound per tick with
	// the coalesced window count and the tick's classify latency.
	Observer Observer
	// Energy, when non-nil, attributes estimated SOPs to every
	// classified window (see Options.Energy); producers receive each
	// window's activity-weighted share of its tick's total.
	Energy EnergyAccount
	// SensorW/SensorH, when set, pin the sensor resolution; windows
	// voxelized at any other resolution fail their session. When zero
	// the first submission's dimensions are adopted.
	SensorW, SensorH int
}

// DefaultMaxBatch is the coalescing cap used when
// SchedulerOptions.MaxBatch is unset.
const DefaultMaxBatch = 16

// ErrSchedulerClosed fails producer submissions and awaited windows
// when the scheduler shuts down mid-flight.
var ErrSchedulerClosed = errors.New("stream: scheduler closed")

// windowEntry is one pooled submission: the frame tensors a producer
// voxelized one window into, routing state for the demux, and the
// shape the scheduler validates against its adopted topology. Entries
// cycle producer → queue → scheduler → free forever; their frame
// tensors are sized lazily and recycled exactly like BatchSlot frames.
type windowEntry struct {
	owner *Producer
	slot  int // index into the owner's round: routes the class and completion back
	tier  snn.PrecisionTier

	frames []*tensor.Tensor
	steps  int
	h, w   int
}

// sizedFrames returns the entry's frame set sized (steps, 2, h, w),
// reallocating only when the step count or sensor changes — the
// BatchSlot.Frames contract, per entry.
//
//axsnn:allow-alloc sizes frame tensors on first use or sensor/step change; the steady state reuses them
func (e *windowEntry) sizedFrames(steps, h, w int) []*tensor.Tensor {
	fs := e.frames
	if len(fs) == steps && steps > 0 {
		sh := fs[0].Shape
		if len(sh) == 3 && sh[0] == 2 && sh[1] == h && sh[2] == w {
			e.steps, e.h, e.w = steps, h, w
			return fs
		}
	}
	fs = make([]*tensor.Tensor, steps)
	for j := range fs {
		fs[j] = tensor.New(2, h, w)
	}
	e.frames = fs
	e.steps, e.h, e.w = steps, h, w
	return fs
}

// NewScheduler builds and starts a shared classifier scheduler. Close
// stops it; producers blocked in submit or await unblock with
// ErrSchedulerClosed.
func NewScheduler(o SchedulerOptions) (*Scheduler, error) {
	if o.Steps <= 0 {
		return nil, fmt.Errorf("stream: scheduler Steps must be positive, got %d", o.Steps)
	}
	if o.Clones == nil {
		return nil, fmt.Errorf("stream: scheduler requires a CloneSource")
	}
	if (o.SensorW == 0) != (o.SensorH == 0) || o.SensorW < 0 || o.SensorH < 0 {
		return nil, fmt.Errorf("stream: SensorW/SensorH must be set together, got %dx%d", o.SensorW, o.SensorH)
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.Queue <= 0 {
		o.Queue = 2 * o.MaxBatch
	}
	if o.FairShare <= 0 {
		o.FairShare = o.MaxBatch / 4
		if o.FairShare < 1 {
			o.FairShare = 1
		}
	}
	s := newScheduler(o)
	go s.run()
	return s, nil
}

// newScheduler builds the scheduler without starting its goroutine —
// the white-box form the tick benchmark drives synchronously.
func newScheduler(o SchedulerOptions) *Scheduler {
	s := &Scheduler{
		o:          o,
		queue:      make(chan *windowEntry, o.Queue),
		free:       make(chan *windowEntry, o.Queue),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		pending:    make([]*windowEntry, 0, o.Queue),
		gathered:   make([]*windowEntry, 0, o.MaxBatch),
		samples:    make([][]*tensor.Tensor, 0, o.MaxBatch),
		out:        make([]int, o.MaxBatch),
		insums:     make([]float64, o.MaxBatch),
		sopsOut:    make([]float64, o.MaxBatch),
		h:          o.SensorH,
		w:          o.SensorW,
		confirmed:  o.SensorW != 0,
		fillCounts: make([]atomic.Int64, o.MaxBatch+1),
	}
	if o.TickInterval > 0 {
		s.timer = time.NewTimer(o.TickInterval)
		if !s.timer.Stop() {
			<-s.timer.C
		}
	}
	for i := 0; i < o.Queue; i++ {
		s.free <- &windowEntry{}
	}
	s.tierClones, _ = o.Clones.(TierCloneSource)
	return s
}

// supportsTier reports whether producers may submit tier-t windows.
func (s *Scheduler) supportsTier(t snn.PrecisionTier) bool {
	if t == snn.TierFP32 {
		return true
	}
	return s.tierClones != nil && s.tierClones.SupportsTier(t)
}

// Steps is the uniform window step count the scheduler serves.
func (s *Scheduler) Steps() int { return s.o.Steps }

// MaxBatch is the per-tick coalescing cap.
func (s *Scheduler) MaxBatch() int { return s.o.MaxBatch }

// FairShare is the per-producer per-tick window cap.
func (s *Scheduler) FairShare() int { return s.o.FairShare }

// Close stops the scheduler and waits for its goroutine. Queued and
// in-flight windows fail with ErrSchedulerClosed.
func (s *Scheduler) Close() {
	s.closeOnce.Do(func() { close(s.stop) })
	<-s.done
}

// SchedStats is a point-in-time copy of the scheduler's counters.
type SchedStats struct {
	// Ticks is how many coalesced classification rounds have run.
	Ticks int64
	// Windows is how many windows those ticks classified.
	Windows int64
	// Deferrals counts windows held back to a later tick by MaxBatch
	// or the FairShare cap (the same window can defer repeatedly).
	Deferrals int64
	// Failures counts windows failed back to their producer (shape
	// mismatch, classification panic, shutdown).
	Failures int64
	// MaxPerTick is the most windows one producer has had classified
	// in a single tick — by construction never above FairShare.
	MaxPerTick int64
	// QueueDepth is the submissions waiting for a tick right now.
	QueueDepth int64
	// Fill[n] is how many ticks coalesced exactly n windows.
	Fill []int64
}

// Stats snapshots the scheduler's counters. Not for hot paths: the
// fill histogram copy allocates.
func (s *Scheduler) Stats() SchedStats {
	st := SchedStats{
		Ticks:      s.ticks.Load(),
		Windows:    s.windows.Load(),
		Deferrals:  s.deferrals.Load(),
		Failures:   s.failures.Load(),
		MaxPerTick: s.maxPerTick.Load(),
		QueueDepth: s.depthGauge.Load() + int64(len(s.queue)),
		Fill:       make([]int64, len(s.fillCounts)),
	}
	for i := range s.fillCounts {
		st.Fill[i] = s.fillCounts[i].Load()
	}
	return st
}

// AvgFill is the mean windows per tick — the coalescing win in one
// number (1.0 means the scheduler degenerated to per-window GEMMs).
func (st SchedStats) AvgFill() float64 {
	if st.Ticks == 0 {
		return 0
	}
	return float64(st.Windows) / float64(st.Ticks)
}

// run is the scheduler goroutine: block for work, optionally
// accumulate toward a fuller batch, tick, repeat until Close.
func (s *Scheduler) run() {
	defer close(s.done)
	for {
		if len(s.pending) == 0 {
			select {
			case e := <-s.queue:
				s.pending = append(s.pending, e)
			case <-s.stop:
				s.shutdown()
				return
			}
			s.accumulate()
		}
		s.tick()
		select {
		case <-s.stop:
			s.shutdown()
			return
		default:
		}
	}
}

// accumulate waits up to TickInterval for more submissions after the
// first, trading tick latency for batch fill. With TickInterval unset
// it returns immediately: greedy ticks, where the classify itself is
// the accumulation window for the next tick.
func (s *Scheduler) accumulate() {
	if s.timer == nil {
		return
	}
	s.timer.Reset(s.o.TickInterval)
	for len(s.pending) < s.o.MaxBatch {
		select {
		case e := <-s.queue:
			s.pending = append(s.pending, e)
			continue
		case <-s.timer.C:
			return
		case <-s.stop:
			// The outer loop runs one final tick, then shuts down.
		}
		break
	}
	if !s.timer.Stop() {
		select {
		case <-s.timer.C:
		default:
		}
	}
}

// tick is one coalesced classification round: drain the queue, select
// up to MaxBatch windows under the fairness cap, classify them in one
// batched call, demux the classes back to their producers.
//
//axsnn:hotpath
func (s *Scheduler) tick() {
	s.gather()
	s.selectBatch()
	fill := s.buildSamples()
	if fill == 0 {
		s.depthGauge.Store(int64(len(s.pending)))
		return
	}
	var t0 int64
	if s.o.Observer != nil {
		t0 = time.Now().UnixNano() //axsnn:allow-alloc observability clock read, once per tick, outside the reproducible kernels
	}
	err := s.classify(fill)
	// Every statistic this tick changes is published before the first
	// completion leaves: a reader synchronized on a delivered result (a
	// test, a /metrics scrape after a client's done) must see it counted.
	s.depthGauge.Store(int64(len(s.pending)))
	if err != nil {
		s.failBatch(err)
		return
	}
	s.ticks.Add(1)
	s.windows.Add(int64(fill))
	s.fillCounts[fill].Add(1)
	if s.o.Observer != nil {
		s.o.Observer.ObserveRound(fill, time.Now().UnixNano()-t0) //axsnn:allow-alloc observability clock read, once per tick, outside the reproducible kernels
	}
	s.demux(fill)
}

// gather drains every currently queued submission into the pending
// list, preserving submission order. Capacity equals the entry pool,
// so the append can never grow.
//
//axsnn:hotpath
func (s *Scheduler) gather() {
	for len(s.pending) < cap(s.pending) {
		select {
		case e := <-s.queue:
			s.pending = append(s.pending, e) //axsnn:allow-alloc capped at the entry-pool size; backing array preallocated at construction
			continue
		default:
		}
		break
	}
}

// selectBatch moves up to MaxBatch pending entries into the gathered
// batch, at most FairShare per producer; the rest stay pending in
// order. Per-producer order is preserved on both sides of the split,
// which is what keeps the demux aligned with each session's round.
// Only entries sharing the head entry's precision tier coalesce — a
// batch runs on one clone at one tier — so other-tier windows defer to
// a later tick; they head the pending list after this batch drains, so
// alternating tiers ping-pong rather than starve.
//
//axsnn:hotpath
func (s *Scheduler) selectBatch() {
	for _, e := range s.pending {
		e.owner.taken = 0
	}
	s.gathered = s.gathered[:0]
	kept := s.pending[:0]
	deferred := 0
	var tier snn.PrecisionTier
	if len(s.pending) > 0 {
		tier = s.pending[0].tier
	}
	for _, e := range s.pending {
		if e.tier == tier && len(s.gathered) < s.o.MaxBatch && e.owner.taken < s.o.FairShare {
			e.owner.taken++
			s.noteTaken(int64(e.owner.taken))
			s.gathered = append(s.gathered, e) //axsnn:allow-alloc capped at MaxBatch; backing array preallocated at construction
		} else {
			kept = append(kept, e) //axsnn:allow-alloc in-place filter over pending: reuses pending's own backing array
			deferred++
		}
	}
	s.pending = kept
	if deferred > 0 {
		s.deferrals.Add(int64(deferred))
	}
}

// noteTaken lifts the fairness high-water gauge.
func (s *Scheduler) noteTaken(taken int64) {
	for {
		hw := s.maxPerTick.Load()
		if taken <= hw || s.maxPerTick.CompareAndSwap(hw, taken) {
			return
		}
	}
}

// buildSamples validates every gathered entry against the adopted
// topology — failing mismatches individually, adopting dimensions from
// the first submission when unpinned — and assembles the sample view
// for the batched classify. Returns the batch fill.
//
//axsnn:hotpath
func (s *Scheduler) buildSamples() int {
	valid := s.gathered[:0]
	s.samples = s.samples[:0]
	for _, e := range s.gathered {
		if e.steps != s.o.Steps {
			s.fail(e, fmt.Errorf("stream: window voxelized at %d steps, scheduler serves %d", e.steps, s.o.Steps)) //axsnn:allow-alloc failure path: formats once per rejected window
			continue
		}
		if s.h == 0 {
			s.h, s.w = e.h, e.w
		}
		if e.h != s.h || e.w != s.w {
			s.fail(e, fmt.Errorf("stream: window voxelized for a %dx%d sensor, scheduler serves %dx%d", e.w, e.h, s.w, s.h)) //axsnn:allow-alloc failure path: formats once per rejected window
			continue
		}
		valid = append(valid, e)                //axsnn:allow-alloc in-place filter over gathered: reuses gathered's own backing array
		s.samples = append(s.samples, e.frames) //axsnn:allow-alloc capped at MaxBatch; backing array preallocated at construction
		if s.o.Energy != nil {
			s.insums[len(s.samples)-1] = frameSum(e.frames)
		}
	}
	s.gathered = valid
	return len(s.gathered)
}

// classify runs the coalesced batch on a pooled clone. A panic
// (malformed frames aliasing the network input) fails the batch, not
// the process — and rolls back an unconfirmed sensor adoption so the
// session that poisoned it cannot break every session after it.
//
//axsnn:hotpath
func (s *Scheduler) classify(fill int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("stream: window classification panicked: %v", r) //axsnn:allow-alloc panic capture: formats once per failed batch
			if !s.confirmed {
				s.h, s.w = s.o.SensorH, s.o.SensorW
			}
		}
	}()
	var clone *snn.Network
	if tier := s.gathered[0].tier; tier != snn.TierFP32 {
		// selectBatch keeps batches tier-uniform; supportsTier was
		// checked when the producer's pipeline was built, so the tiered
		// source is present whenever a non-FP32 entry gets this far.
		clone = s.tierClones.AcquireCloneTier(tier)
	} else {
		clone = s.o.Clones.AcquireClone()
	}
	defer s.o.Clones.ReleaseClone(clone)
	if s.o.Energy != nil {
		clone.ResetStats()
	}
	clone.PredictBatchInto(s.samples[:fill], s.out[:fill])
	if s.o.Energy != nil {
		inputSum := 0.0
		for _, v := range s.insums[:fill] {
			inputSum += v
		}
		total, _ := s.o.Energy.BatchSOPs(clone, inputSum, fill)
		splitSOPs(total, s.insums[:fill], s.sopsOut[:fill])
	}
	s.confirmed = true
	return nil
}

// demux routes each class back to its producer in submission order and
// recycles the entries. Completion channels are buffered to the
// producer's in-flight capacity, so the send never blocks the tick.
//
//axsnn:hotpath
func (s *Scheduler) demux(fill int) {
	for i, e := range s.gathered[:fill] {
		e.owner.out[e.slot] = s.out[i]
		e.owner.sops[e.slot] = s.sopsOut[i]
		owner, slot := e.owner, e.slot
		s.recycle(e)
		owner.compl <- complMsg{slot: slot}
	}
	s.gathered = s.gathered[:0]
}

// failBatch fails every gathered entry back to its producer.
func (s *Scheduler) failBatch(err error) {
	s.failures.Add(int64(len(s.gathered)))
	for _, e := range s.gathered {
		s.fail(e, err)
	}
	s.gathered = s.gathered[:0]
}

// fail completes one entry with an error.
func (s *Scheduler) fail(e *windowEntry, err error) {
	owner, slot := e.owner, e.slot
	s.recycle(e)
	owner.compl <- complMsg{slot: slot, err: err}
}

// recycle detaches an entry from its submission and returns it to the
// pool. The frame tensors stay sized — the whole point of the pool.
func (s *Scheduler) recycle(e *windowEntry) {
	e.owner, e.slot = nil, 0
	s.free <- e
}

// shutdown fails everything queued or pending. Producers blocked in
// takeEntry, submit or await unblock through the closed stop channel.
func (s *Scheduler) shutdown() {
	s.gather()
	s.failures.Add(int64(len(s.pending)))
	for _, e := range s.pending {
		s.fail(e, ErrSchedulerClosed)
	}
	s.pending = s.pending[:0]
	s.depthGauge.Store(0)
}

// complMsg is one window completion, routed back to the producer that
// submitted it. Fixed-size, moved by value.
type complMsg struct {
	slot int
	err  error
}

// Producer is one pipeline's handle on a shared Scheduler: an entry
// source, a submission edge and a completion sink. A Producer belongs
// to a single pipeline goroutine; rounds are strictly sequential
// (submit a round, await it, emit), matching the pipeline's flush
// discipline.
type Producer struct {
	s     *Scheduler
	compl chan complMsg
	out   []int             // per-round classes, indexed by submission slot
	sops  []float64         // per-round SOP estimates, indexed by submission slot
	tier  snn.PrecisionTier // precision tier every submission carries
	taken int               // scheduler-goroutine-only: windows granted this tick
}

// NewProducer registers a producer that will have at most inflight
// windows submitted and unawaited at any time (a pipeline passes its
// round width). The completion channel is buffered to exactly that, so
// the scheduler's demux can never block on a slow producer.
func (s *Scheduler) NewProducer(inflight int) *Producer {
	if inflight < 1 {
		inflight = 1
	}
	return &Producer{
		s:     s,
		compl: make(chan complMsg, inflight),
		out:   make([]int, inflight),
		sops:  make([]float64, inflight),
	}
}

// takeEntry borrows a pooled entry to voxelize one window into,
// blocking while all entries are in flight — the scheduler-side
// backpressure that bounds total staged frame memory.
//
//axsnn:hotpath
func (p *Producer) takeEntry() (*windowEntry, error) {
	select {
	case e := <-p.s.free:
		return e, nil
	case <-p.s.stop:
		return nil, ErrSchedulerClosed
	}
}

// frames returns the entry's frame tensors sized to the scheduler's
// step count and the given sensor, ready to voxelize into.
func (p *Producer) frames(e *windowEntry, h, w int) []*tensor.Tensor {
	return e.sizedFrames(p.s.o.Steps, h, w)
}

// submit queues a voxelized entry for the next tick, tagged with the
// round slot its class and completion route back to. The queue is
// sized to the entry pool, so the send can only block during shutdown.
//
//axsnn:hotpath
func (p *Producer) submit(e *windowEntry, slot int) {
	e.owner, e.slot, e.tier = p, slot, p.tier
	select {
	case p.s.queue <- e:
	case <-p.s.stop:
		// The scheduler is gone and will never drain the queue; complete
		// the window locally so the caller's await sees a full round.
		e.owner, e.slot = nil, 0
		p.compl <- complMsg{slot: slot, err: ErrSchedulerClosed}
	}
}

// await collects n completions — one full submitted round — and
// returns the first error among them, if any. Results land in out by
// slot. Returns promptly with ErrSchedulerClosed if the scheduler
// shuts down mid-round.
//
//axsnn:hotpath
func (p *Producer) await(n int) error {
	var err error
	for i := 0; i < n; i++ {
		// Delivered completions take priority over the stop signal, so a
		// round that fully classified before Close is never mislabeled.
		select {
		case m := <-p.compl:
			if m.err != nil && err == nil {
				err = m.err
			}
			continue
		default:
		}
		select {
		case m := <-p.compl:
			if m.err != nil && err == nil {
				err = m.err
			}
		case <-p.s.stop:
			// Remaining completions may never arrive; the round is lost.
			if err == nil {
				err = ErrSchedulerClosed
			}
			return err
		}
	}
	return err
}

// releaseEntry returns an unsubmitted entry (taken but never queued —
// an error unwound the round mid-build) to the pool.
func (p *Producer) releaseEntry(e *windowEntry) {
	p.s.recycle(e)
}
