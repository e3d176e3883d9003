package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/defense"
	"repro/internal/dvs"
	"repro/internal/serve"
	"repro/internal/snn"
	"repro/internal/stream"
)

// workload is one serving traffic mix.
type workload struct {
	tier snn.PrecisionTier
	// secure runs the paper's secure path: recordings carry Frame-attack
	// border floods, the server filters with IncrementalAQF, and the
	// traced run adds the paper's attack/defense loop.
	secure bool
	// routed puts a Router in front of two replicas and opens a new
	// hello/accept session for every recording, instead of one long
	// session per client on one server.
	routed   bool
	segments int // gesture segments (1.6 s each) per recording
	pool     int // distinct recordings generated from the seed
}

var workloads = map[string]workload{
	// The paper's secure serving path: long Frame-attacked recordings on
	// one server through decode, IncrementalAQF, voxelize, the shared
	// scheduler and the FP32 model.
	"serve-aqf-direct": {tier: snn.TierFP32, secure: true, segments: 2, pool: dvs.GestureClasses},
	// The INT8 kernels, the router relay and session opening: clean
	// short recordings, each on a new session through the router. AQF
	// and FP32 changes predict no change here.
	"serve-int8-routed": {tier: snn.TierINT8, routed: true, segments: 1, pool: dvs.GestureClasses},
}

const (
	clients = 2 // client connections; the host has 2 CPUs
	// Shares of --seconds given to the 1× open-loop phase and, in the
	// traced run, the fixed-rate open-loop phase. The closed loop has the
	// rest.
	lowShare, highShare = 0.4, 0.35
	// setupsPerRound is how many timed set-ups run before each round,
	// after the first: setup_s is the median of 1 + rounds×setupsPerRound.
	setupsPerRound = 5
	// rounds is how many times the closed-loop phase (alternating with
	// the fixed-rate phase in the traced run) runs within a run. The
	// .high latencies are medians over rounds of each round's quantile,
	// so host stalls of a few hundred milliseconds in fewer than half the
	// rounds do not move them.
	rounds = 8
)

func (w workload) pipeline() stream.Options {
	o := stream.Options{
		WindowMS: windowMS, Steps: modelSteps, ChunkEvents: chunkEvents,
		SensorW: sensorW, SensorH: sensorH,
	}
	if w.secure {
		p := defense.DefaultAQFParams(serveQt)
		o.AQF = &p
	}
	return o
}

// creditWindow covers a whole recording. With the default window of 64,
// a client uploading a recording larger than the server's read-ahead
// runway at full speed stalls until the idle timeout: its credit top-ups
// queue behind its own unread upload bytes while the server waits for
// credit (see README.md).
const creditWindow = 1024

func (w workload) clientOptions() serve.ClientOptions {
	return serve.ClientOptions{Config: serve.SessionConfig{Tier: w.tier, CreditWindow: creditWindow}}
}

// references computes every recording's expected results with a
// standalone stream.Predict on an independently loaded network, for the
// same pipeline options and tier the sessions negotiate.
func (w workload) references(ckpt []byte, recs []*recording) error {
	net, err := loadDVS(ckpt)
	if err != nil {
		return err
	}
	o := w.pipeline()
	o.Tier = w.tier
	if w.tier == snn.TierINT8 {
		if err := net.BuildInt8Panels(); err != nil {
			return fmt.Errorf("reference int8 panels: %w", err)
		}
	}
	for i, r := range recs {
		if r.ref, err = stream.Predict(bytes.NewReader(r.data), net, o); err != nil {
			return fmt.Errorf("reference for recording %d: %w", i, err)
		}
	}
	return nil
}

// fleet is the serving tier under test: one server, or two replicas
// behind a router, all in this process on loopback TCP.
type fleet struct {
	servers []*serve.Server
	router  *serve.Router
	addr    string
	wg      sync.WaitGroup
}

func (f *fleet) serve(ln net.Listener, s interface{ Serve(net.Listener) error }) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = s.Serve(ln) // returns once Close stops the listener
	}()
}

// Close stops the router and servers and waits for their accept loops.
func (f *fleet) Close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	f.wg.Wait()
}

// startFleet builds the model(s) from the checkpoint, the server(s) and,
// for a routed workload, the router, and waits for every replica to
// report healthy.
func startFleet(w workload, ckpt []byte) (*fleet, error) {
	f := &fleet{}
	replicas := 1
	if w.routed {
		replicas = 2
	}
	var addrs []string
	for i := 0; i < replicas; i++ {
		master, err := loadDVS(ckpt)
		if err != nil {
			f.Close()
			return nil, err
		}
		srv, err := serve.NewServer(master, serve.ServerOptions{Pipeline: w.pipeline(), MaxSessions: 16})
		if err != nil {
			f.Close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, err
		}
		f.serve(ln, srv)
		addrs = append(addrs, ln.Addr().String())
	}
	f.addr = addrs[0]
	if !w.routed {
		return f, nil
	}
	rt, err := serve.NewRouter(serve.RouterOptions{Replicas: addrs})
	if err != nil {
		f.Close()
		return nil, err
	}
	f.router = rt
	for deadline := time.Now().Add(10 * time.Second); rt.Healthy() < replicas; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			f.Close()
			return nil, errors.New("replicas never became healthy")
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, err
	}
	f.serve(ln, rt)
	f.addr = ln.Addr().String()
	return f, nil
}

// setup is the timed set-up: from building the model to the first warm
// result, a complete warm-up session whose windows pass the oracle.
func setup(w workload, ckpt []byte, warm *recording) (*fleet, time.Duration, error) {
	start := time.Now()
	f, err := startFleet(w, ckpt)
	if err != nil {
		return nil, 0, err
	}
	cl, err := serve.Dial(f.addr, w.clientOptions())
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	check := windowCheck{ref: warm.ref}
	n, err := cl.Stream(bytes.NewReader(warm.data), func(r stream.Result) error { check.observe(r); return nil })
	cl.Close()
	if bad := check.failed(n, err); bad > 0 {
		f.Close()
		return nil, 0, fmt.Errorf("warm-up session: %d of %d windows failed (err %v)", bad, len(warm.ref), err)
	}
	return f, time.Since(start), nil
}

// tally is one client's record of a phase. The paced reader appends to
// lags from the client's send goroutine; everything else is appended
// from the goroutine running Stream, and Stream returns only after the
// send goroutine has finished.
type tally struct {
	lat       []float64 // window latency, ms (open loop)
	lags      []float64 // generator lag, ms (open loop)
	opens     []float64 // Dial → accept, ms
	done      int       // results that arrived before the deadline (closed loop)
	attempted int
	failed    int
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.lags = append(t.lags, o.lags...)
	t.opens = append(t.opens, o.opens...)
	t.done += o.done
	t.attempted += o.attempted
	t.failed += o.failed
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// session drives recordings against one fleet.
type session struct {
	w    workload
	f    *fleet
	recs []*recording
	tr   *Tracer
}

// open dials a session and completes the hello/accept handshake.
func (s *session) open(parent int, t *tally) (*serve.Client, error) {
	id := s.tr.Begin("serve.session_open", parent)
	start := time.Now()
	cl, err := serve.Dial(s.f.addr, s.w.clientOptions())
	if err == nil {
		if err = cl.Ping(); err != nil {
			cl.Close()
		}
	}
	s.tr.End(id)
	if err != nil {
		return nil, err
	}
	t.opens = append(t.opens, ms(time.Since(start)))
	return cl, nil
}

// phase runs every client until the deadline and returns the merged
// tally. speed > 0 replays open loop at that many sensor milliseconds per
// wall millisecond; a recording is started only if its schedule ends by
// the deadline. speed 0 is closed loop: each client sends its next
// recording as soon as the previous one is done, until the deadline.
func (s *session) phase(name string, speed float64, start, deadline time.Time) *tally {
	root := s.tr.Begin("serve.phase."+name, 0)
	defer s.tr.End(root)
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.client(c, speed, start, deadline, root, &tallies[c])
		}(c)
	}
	wg.Wait()
	var all tally
	for i := range tallies {
		all.merge(&tallies[i])
	}
	return &all
}

func (s *session) client(c int, speed float64, start, deadline time.Time, root int, t *tally) {
	var cl *serve.Client
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	next := start
	for j := 0; ; j++ {
		rec := s.recs[(c+clients*j)%len(s.recs)]
		p := replay{rec: rec, start: next, speed: speed}
		if speed > 0 {
			if j > 0 && p.end().After(deadline) {
				return
			}
			next = p.end()
		} else if j > 0 && !time.Now().Before(deadline) {
			return
		}
		recSpan := s.tr.Begin("serve.recording", root)
		if s.w.routed && speed > 0 {
			wallClock{}.SleepUntil(p.start)
		}
		if cl == nil || s.w.routed {
			if cl != nil {
				cl.Close()
			}
			var err error
			if cl, err = s.open(recSpan, t); err != nil {
				fmt.Fprintf(os.Stderr, "client %d: opening a session: %v\n", c, err)
				t.attempted += len(rec.ref)
				t.failed += len(rec.ref)
				s.tr.End(recSpan)
				continue
			}
		}
		var src io.Reader = bytes.NewReader(rec.data)
		if speed > 0 {
			src = &pacedReader{p: p, clk: wallClock{}, onLag: func(v float64) { t.lags = append(t.lags, v) }}
		}
		check := windowCheck{ref: rec.ref}
		streamSpan := s.tr.Begin("serve.stream", recSpan)
		n, err := cl.Stream(src, func(r stream.Result) error {
			now := time.Now()
			check.observe(r)
			if speed == 0 {
				if now.Before(deadline) {
					t.done++
				}
			} else if lat, ok := p.latency(r.Window, now); ok {
				t.lat = append(t.lat, lat)
				s.tr.Record("serve.window", streamSpan, now.Add(-time.Duration(lat*float64(time.Millisecond))), now)
			}
			return nil
		})
		s.tr.End(streamSpan)
		s.tr.End(recSpan)
		t.attempted += len(rec.ref)
		if bad := check.failed(n, err); bad > 0 {
			t.failed += bad
			fmt.Fprintf(os.Stderr, "client %d: recording %d: %d of %d windows failed (err %v)\n", c, j, bad, len(rec.ref), err)
		}
		if err != nil {
			cl.Close()
			cl = nil
		}
	}
}
