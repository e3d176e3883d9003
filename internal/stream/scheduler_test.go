package stream

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dvs"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// testClones is a bounded CloneSource over deep copies of one master —
// the shape internal/serve's pool presents, without the server.
type testClones struct{ ch chan *snn.Network }

func newTestClones(master *snn.Network, n int) *testClones {
	c := &testClones{ch: make(chan *snn.Network, n)}
	for i := 0; i < n; i++ {
		c.ch <- master.DeepClone()
	}
	return c
}

func (c *testClones) AcquireClone() *snn.Network  { return <-c.ch }
func (c *testClones) ReleaseClone(n *snn.Network) { c.ch <- n }

// TestSchedulerMatchesPrivate is the shared-batching equivalence gate:
// producer-mode pipelines riding one shared scheduler must emit classes
// bit-identical to private pipelines, for every mix of window, chunk
// and round sizes, at several worker counts and coalescing caps, with
// all sessions streaming concurrently so ticks really interleave
// windows from different producers into one batch.
func TestSchedulerMatchesPrivate(t *testing.T) {
	defer tensor.SetWorkers(0)
	steps := 4
	net := testNet(steps)
	clones := newTestClones(net, 2)

	type session struct {
		data []byte
		want []int
		o    Options
	}
	shapes := []Options{
		{WindowMS: 50, Steps: steps, Batch: 1, ChunkEvents: 64},
		{WindowMS: 45, Steps: steps, Batch: 2, ChunkEvents: 96},
		{WindowMS: 60, Steps: steps, Batch: 4, ChunkEvents: 48},
		{WindowMS: 35, Steps: steps, Batch: 3, ChunkEvents: 128},
	}
	sessions := make([]session, len(shapes))
	total := 0
	for i, o := range shapes {
		data := encode(t, testStream(i%dvs.GestureClasses, 260, uint64(70+i)))
		sessions[i] = session{data: data, want: streamClasses(t, net, data, o), o: o}
		total += len(sessions[i].want)
	}

	for _, workers := range []int{1, 2, 3} {
		for _, maxBatch := range []int{2, 16} {
			t.Run(fmt.Sprintf("workers=%d/maxbatch=%d", workers, maxBatch), func(t *testing.T) {
				tensor.SetWorkers(workers)
				sched, err := NewScheduler(SchedulerOptions{Steps: steps, MaxBatch: maxBatch, Clones: clones})
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				errs := make(chan error, len(sessions))
				for i, ss := range sessions {
					wg.Add(1)
					go func(i int, ss session) {
						defer wg.Done()
						o := ss.o
						o.Scheduler = sched
						results, err := Predict(bytes.NewReader(ss.data), net, o)
						if err != nil {
							errs <- fmt.Errorf("session %d: %w", i, err)
							return
						}
						if len(results) != len(ss.want) {
							errs <- fmt.Errorf("session %d: %d windows, want %d", i, len(results), len(ss.want))
							return
						}
						for k, r := range results {
							if r.Window != k {
								errs <- fmt.Errorf("session %d: result %d carries window %d: demux broke ordering", i, k, r.Window)
								return
							}
							if r.Class != ss.want[k] {
								errs <- fmt.Errorf("session %d window %d: class %d, want %d", i, k, r.Class, ss.want[k])
								return
							}
						}
					}(i, ss)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
				st := sched.Stats()
				sched.Close()
				if st.Windows != int64(total) {
					t.Fatalf("scheduler classified %d windows, sessions streamed %d", st.Windows, total)
				}
				if fair := int64(sched.FairShare()); st.MaxPerTick > fair {
					t.Fatalf("one producer took %d windows in a tick, fairness cap is %d", st.MaxPerTick, fair)
				}
				if st.QueueDepth != 0 {
					t.Fatalf("queue depth %d after every session drained, want 0", st.QueueDepth)
				}
			})
		}
	}
}

// schedTestWindows precomputes window event sets and their reference
// classes — voxelized and classified one window at a time, independent
// of any batching — for the white-box scheduler tests.
func schedTestWindows(t *testing.T, net *snn.Network, steps, n int) ([]*dvs.Stream, []int) {
	t.Helper()
	windows := dvs.SplitWindows(longStream(2, 200, 77), 40)
	if len(windows) < n {
		t.Fatalf("only %d windows generated, need %d", len(windows), n)
	}
	frames := make([]*tensor.Tensor, steps)
	for i := range frames {
		frames[i] = tensor.New(2, 16, 16)
	}
	ref := make([]int, n)
	for i := 0; i < n; i++ {
		dvs.VoxelizeWindowInto(frames, windows[i].Events, 16, 16, 0, 40)
		ref[i] = net.PredictBatch([][]*tensor.Tensor{frames})[0]
	}
	return windows[:n], ref
}

// submitWindow voxelizes one precomputed window into a pooled entry and
// queues it on the producer's round slot.
func submitWindow(t *testing.T, p *Producer, slot int, win *dvs.Stream) {
	t.Helper()
	e, err := p.takeEntry()
	if err != nil {
		t.Fatal(err)
	}
	dvs.VoxelizeWindowInto(p.frames(e, 16, 16), win.Events, 16, 16, 0, 40)
	p.submit(e, slot)
}

// TestSchedulerFairShare drives ticks synchronously against a heavy
// producer with a 6-window backlog and a light producer with one
// window: the fairness cap must bound the heavy session's take per
// tick, the light window must ride the very first tick, and every
// deferred window must still come back in order with its own class.
func TestSchedulerFairShare(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	steps := 3
	net := testNet(steps)
	windows, ref := schedTestWindows(t, net, steps, 7)

	s := newScheduler(SchedulerOptions{
		Steps: steps, MaxBatch: 4, Queue: 16, FairShare: 2,
		Clones: newTestClones(net, 1),
	})
	heavy := s.NewProducer(6)
	light := s.NewProducer(1)
	for k := 0; k < 6; k++ {
		submitWindow(t, heavy, k, windows[k])
	}
	submitWindow(t, light, 0, windows[6])

	s.tick()
	st := s.Stats()
	if st.Windows != 3 {
		t.Fatalf("first tick classified %d windows, want 3 (heavy capped at FairShare=2 + the light window)", st.Windows)
	}
	if st.MaxPerTick != 2 {
		t.Fatalf("max windows per producer per tick = %d, want the FairShare cap 2", st.MaxPerTick)
	}
	if st.Deferrals != 4 {
		t.Fatalf("first tick deferred %d windows, want 4", st.Deferrals)
	}
	if err := light.await(1); err != nil {
		t.Fatalf("light producer's window did not complete on the first tick: %v", err)
	}
	if light.out[0] != ref[6] {
		t.Fatalf("light window class %d, want %d", light.out[0], ref[6])
	}

	s.tick()
	s.tick()
	if err := heavy.await(6); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		if heavy.out[k] != ref[k] {
			t.Fatalf("heavy window %d class %d, want %d: deferral broke the demux routing", k, heavy.out[k], ref[k])
		}
	}
	st = s.Stats()
	if st.Ticks != 3 || st.Windows != 7 || st.Deferrals != 6 {
		t.Fatalf("ticks=%d windows=%d deferrals=%d, want 3/7/6", st.Ticks, st.Windows, st.Deferrals)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after the backlog drained, want 0", st.QueueDepth)
	}
}

// countingObserver tallies ObserveRound windows for the stats test.
type countingObserver struct{ windows atomic.Int64 }

func (o *countingObserver) ObserveRound(windows int, _ int64) { o.windows.Add(int64(windows)) }

// TestSchedulerStatsBeforeCompletion pins the publication order of the
// scheduler's statistics: every counter a tick changes — ticks,
// windows, the fill histogram, the queue-depth gauge and the observer's
// round — is published before the tick's completions reach producers,
// so a reader synchronized on a delivered result (a test, a /metrics
// scrape after a client's done) never sees it uncounted.
func TestSchedulerStatsBeforeCompletion(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	steps := 3
	net := testNet(steps)
	windows, ref := schedTestWindows(t, net, steps, 6)
	obs := &countingObserver{}
	sched, err := NewScheduler(SchedulerOptions{
		Steps: steps, MaxBatch: 4, Clones: newTestClones(net, 1), Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	p := sched.NewProducer(1)
	for k, win := range windows {
		submitWindow(t, p, 0, win)
		if err := p.await(1); err != nil {
			t.Fatal(err)
		}
		if p.out[0] != ref[k] {
			t.Fatalf("window %d class %d, want %d", k, p.out[0], ref[k])
		}
		st := sched.Stats()
		done := int64(k + 1)
		var filled int64
		for fill, n := range st.Fill {
			filled += int64(fill) * n
		}
		switch {
		case st.Windows != done:
			t.Fatalf("after %d completions Stats().Windows = %d", done, st.Windows)
		case st.Ticks != done:
			t.Fatalf("after %d single-window rounds Stats().Ticks = %d", done, st.Ticks)
		case filled != done:
			t.Fatalf("after %d completions the fill histogram counts %d windows", done, filled)
		case st.QueueDepth != 0:
			t.Fatalf("after completion %d Stats().QueueDepth = %d, want 0", done, st.QueueDepth)
		case obs.windows.Load() != done:
			t.Fatalf("after %d completions the observer saw %d windows", done, obs.windows.Load())
		}
	}
}

// TestSchedulerClose pins the shutdown contract: a window submitted
// before Close either classifies on the final tick or fails with
// ErrSchedulerClosed — never hangs — and every round attempted after
// Close fails with ErrSchedulerClosed.
func TestSchedulerClose(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	steps := 3
	net := testNet(steps)
	windows, ref := schedTestWindows(t, net, steps, 1)

	sched, err := NewScheduler(SchedulerOptions{
		Steps: steps, TickInterval: time.Hour, Clones: newTestClones(net, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := sched.NewProducer(1)
	submitWindow(t, p, 0, windows[0])
	// Let the scheduler move the window into its accumulation wait (the
	// hour-long tick interval holds it there), then close mid-wait.
	time.Sleep(20 * time.Millisecond)
	sched.Close()
	sched.Close() // idempotent
	switch err := p.await(0); err {
	case nil:
	default:
		t.Fatalf("await(0) = %v, want nil", err)
	}
	if err := p.await(1); err == nil {
		if p.out[0] != ref[0] {
			t.Fatalf("final-tick class %d, want %d", p.out[0], ref[0])
		}
	} else if !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("in-flight window failed with %v, want ErrSchedulerClosed", err)
	}

	// A round after Close must fail cleanly, whichever edge it dies on.
	if e, err := p.takeEntry(); err == nil {
		p.submit(e, 0)
		if err := p.await(1); !errors.Is(err, ErrSchedulerClosed) {
			t.Fatalf("post-Close round failed with %v, want ErrSchedulerClosed", err)
		}
	} else if !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("post-Close takeEntry failed with %v, want ErrSchedulerClosed", err)
	}
}

// TestSchedulerOptionValidation covers the scheduler's constructor
// contract and the pipeline-side mutual exclusions of producer mode.
func TestSchedulerOptionValidation(t *testing.T) {
	net := testNet(3)
	clones := newTestClones(net, 1)
	if _, err := NewScheduler(SchedulerOptions{Clones: clones}); err == nil {
		t.Error("Steps 0 accepted")
	}
	if _, err := NewScheduler(SchedulerOptions{Steps: 3}); err == nil {
		t.Error("nil CloneSource accepted")
	}
	if _, err := NewScheduler(SchedulerOptions{Steps: 3, Clones: clones, SensorW: 16}); err == nil {
		t.Error("SensorW without SensorH accepted")
	}

	sched, err := NewScheduler(SchedulerOptions{Steps: 3, Clones: clones})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	if sched.MaxBatch() != DefaultMaxBatch {
		t.Errorf("default MaxBatch = %d, want %d", sched.MaxBatch(), DefaultMaxBatch)
	}
	if sched.FairShare() != DefaultMaxBatch/4 {
		t.Errorf("default FairShare = %d, want %d", sched.FairShare(), DefaultMaxBatch/4)
	}

	base := Options{WindowMS: 50, Steps: 3, Scheduler: sched}
	conflicts := map[string]Options{
		"Clones": func() Options { o := base; o.Clones = clones; return o }(),
		"Slots":  func() Options { o := base; o.Slots = NewSlotPool(1, 1); return o }(),
		"Steps":  {WindowMS: 50, Steps: 4, Scheduler: sched},
	}
	for name, o := range conflicts {
		if _, err := NewPipeline(net, o); err == nil {
			t.Errorf("producer-mode pipeline with conflicting %s accepted", name)
		}
	}
}

// TestSchedulerTickZeroAllocs pins the scheduler's steady state to zero
// allocations across *varying* batch fills — the case that forced the
// inference arena to capacity-based reuse: a tick of 3 after a tick of
// 8 must reslice every arena buffer, not reallocate it.
func TestSchedulerTickZeroAllocs(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	steps := 4
	net := testNet(steps)
	s := newScheduler(SchedulerOptions{
		Steps: steps, MaxBatch: 8, Queue: 16, FairShare: 8,
		Clones: newTestClones(net, 1),
	})
	p := s.NewProducer(8)
	windows := dvs.SplitWindows(longStream(2, 200, 91), 50)

	round := func(fill int) {
		for k := 0; k < fill; k++ {
			e, err := p.takeEntry()
			if err != nil {
				t.Fatal(err)
			}
			dvs.VoxelizeWindowInto(p.frames(e, 16, 16), windows[k%len(windows)].Events, 16, 16, 0, 50)
			p.submit(e, k)
		}
		s.tick()
		if err := p.await(fill); err != nil {
			t.Fatal(err)
		}
	}
	// Warm every pooled entry (two max-fill rounds cycle the whole FIFO
	// pool) and the arena's high-water capacity.
	round(8)
	round(8)

	fills := []int{8, 3, 7, 1, 5}
	i := 0
	if allocs := testing.AllocsPerRun(30, func() {
		round(fills[i%len(fills)])
		i++
	}); allocs != 0 {
		t.Fatalf("steady-state scheduler tick performed %g allocs, want 0", allocs)
	}
}

// BenchmarkSchedulerTick measures one coalesced round — submit fill
// windows, tick, demux — at several fills. CI's zero-alloc gate holds
// it at 0 allocs/op; windows/s against BenchmarkServeSessions shows
// the coalescing win directly.
func BenchmarkSchedulerTick(b *testing.B) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	steps := 4
	net := testNet(steps)
	windows := dvs.SplitWindows(longStream(2, 200, 91), 50)
	for _, fill := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("fill=%d", fill), func(b *testing.B) {
			s := newScheduler(SchedulerOptions{
				Steps: steps, MaxBatch: 16, Queue: 32, FairShare: 16,
				Clones: newTestClones(net, 1),
			})
			p := s.NewProducer(16)
			round := func(n int) {
				for k := 0; k < n; k++ {
					e, err := p.takeEntry()
					if err != nil {
						b.Fatal(err)
					}
					dvs.VoxelizeWindowInto(p.frames(e, 16, 16), windows[k%len(windows)].Events, 16, 16, 0, 50)
					p.submit(e, k)
				}
				s.tick()
				if err := p.await(n); err != nil {
					b.Fatal(err)
				}
			}
			round(16) // two max-fill rounds touch all 32 pooled entries
			round(16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round(fill)
			}
			b.StopTimer()
			b.ReportMetric(float64(fill)*float64(b.N)/b.Elapsed().Seconds(), "windows/s")
		})
	}
}
