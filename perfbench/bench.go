package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/serve"
	"repro/internal/snn"
	"repro/internal/stream"
)

// options are one run's settings from the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	highRate float64 // windows/s of the .high phase, both clients together
	out      string  // directory for the span dump; empty skips it
}

// outcome is what a run reports: ops attempted and failed, and metrics by
// name (units come from the metric tables in main.go).
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

// fleetStats sums the server-side counters the traced run reads.
type fleetStats struct {
	sched      stream.SchedStats
	hist       serve.HistSnapshot
	stalls     int64
	placements []int64
}

func snapshot(f *fleet) fleetStats {
	var st fleetStats
	for _, s := range f.servers {
		if sc := s.Scheduler(); sc != nil {
			ss := sc.Stats()
			st.sched.Ticks += ss.Ticks
			st.sched.Windows += ss.Windows
			st.sched.Deferrals += ss.Deferrals
		}
		h := s.Metrics().Latency.Snapshot()
		for i := range h.Counts {
			st.hist.Counts[i] += h.Counts[i]
		}
		st.stalls += s.Metrics().CreditStalls.Load()
	}
	if f.router != nil {
		for _, r := range f.router.MetricsSnapshot().Replicas {
			st.placements = append(st.placements, r.Placements)
		}
	}
	return st
}

func seconds(share, total float64) time.Duration {
	return time.Duration(share * total * float64(time.Second))
}

// runServing runs one serving workload: inputs and references from the
// seed, repeated timed set-ups, then the 1× open-loop and closed-loop
// phases on the first set-up's fleet. The traced run adds the fixed-rate
// open-loop phase and the per-layer numbers.
func runServing(w workload, o options) (*outcome, error) {
	if o.trace && o.highRate <= 0 {
		return nil, fmt.Errorf("the traced run of %s needs a --high-rate", o.workload)
	}
	ckpt, err := trainDVS(modelSeed)
	if err != nil {
		return nil, err
	}
	recs, err := recordings(w.pool, w.segments, w.secure, o.seed)
	if err != nil {
		return nil, err
	}
	warm, err := warmRecording(w.secure, o.seed+1<<32)
	if err != nil {
		return nil, err
	}
	if err := w.references(ckpt, append(recs, warm)); err != nil {
		return nil, err
	}

	// Set-ups are spread over the run, one first and a few before each
	// round, so their median samples the host's speed over the whole run
	// rather than at its start. The first fleet serves the phases; the
	// others are closed as soon as they are timed.
	var setups []float64
	timedSetup := func() (*fleet, error) {
		// Each set-up starts from a collected heap, so a collection owed
		// to earlier work does not land in its time.
		runtime.GC()
		f, d, err := setup(w, ckpt, warm)
		if err == nil {
			setups = append(setups, d.Seconds())
		}
		return f, err
	}
	moreSetups := func() error {
		for i := 0; i < setupsPerRound; i++ {
			g, err := timedSetup()
			if err != nil {
				return err
			}
			g.Close()
		}
		return nil
	}
	f, err := timedSetup()
	if err != nil {
		return nil, err
	}
	defer func() {
		if f != nil {
			f.Close()
		}
	}()

	res := &outcome{metrics: map[string]float64{}}
	var tr *Tracer
	if o.trace {
		tr = newTracer()
	}
	s := &session{w: w, f: f, recs: recs, tr: tr}
	const lead = 100 * time.Millisecond
	st0 := snapshot(f)
	start := time.Now().Add(lead)
	low := s.phase("low", 1, start, start.Add(seconds(lowShare, o.seconds)))
	// The gated run gives the rest of its time to the closed loop. The
	// traced run also measures the fixed-rate phase, alternating it with
	// the closed loop over several rounds so each samples the whole run.
	closedShare := 1 - lowShare
	if o.trace {
		closedShare -= highShare
	}
	var high, closed tally
	// rates holds each closed-loop round's results that arrived before
	// its deadline over the round's whole wall time, so a stall anywhere
	// in a round lowers its rate. windows_per_s is their median.
	var rates []float64
	var highP50s, highP99s []float64
	var highHist serve.HistSnapshot
	var steals []float64        // host CPU steal in each closed-loop round, % of one CPU
	var sched stream.SchedStats // closed-loop phases only
	highSpeed := o.highRate / clients * windowMS / 1000
	for r := 0; r < rounds; r++ {
		if err := moreSetups(); err != nil {
			return nil, err
		}
		if o.trace {
			a := snapshot(f)
			start = time.Now().Add(lead)
			h := s.phase("high", highSpeed, start, start.Add(seconds(highShare/rounds, o.seconds)))
			high.merge(h)
			highP50s = append(highP50s, median(h.lat))
			highP99s = append(highP99s, quantile(h.lat, 0.99))
			d := snapshot(f).hist.Sub(a.hist)
			for i := range d.Counts {
				highHist.Counts[i] += d.Counts[i]
			}
		}
		b := snapshot(f)
		steal0 := stealSeconds()
		start = time.Now()
		deadline := start.Add(seconds(closedShare/rounds, o.seconds))
		t := s.phase("closed", 0, start, deadline)
		c := snapshot(f)
		closed.merge(t)
		rates = append(rates, float64(t.done)/deadline.Sub(start).Seconds())
		steals = append(steals, (stealSeconds()-steal0)/time.Since(start).Seconds()*100)
		sched.Ticks += c.sched.Ticks - b.sched.Ticks
		sched.Windows += c.sched.Windows - b.sched.Windows
		sched.Deferrals += c.sched.Deferrals - b.sched.Deferrals
	}
	stEnd := snapshot(f)
	var routerSnap serve.RouterSnapshot
	if f.router != nil {
		routerSnap = f.router.MetricsSnapshot()
	}
	var untraced []float64
	if o.trace {
		// Closed-loop phases again without tracing, for the overhead.
		u := &session{w: w, f: f, recs: recs}
		for r := 0; r < rounds; r++ {
			start = time.Now()
			deadline := start.Add(seconds(closedShare/rounds, o.seconds))
			t := u.phase("closed", 0, start, deadline)
			untraced = append(untraced, float64(t.done)/deadline.Sub(start).Seconds())
			res.attempted += t.attempted
			res.failed += t.failed
		}
	}
	f.Close()
	f = nil

	var all tally
	for _, t := range []*tally{low, &high, &closed} {
		all.merge(t)
	}
	res.attempted += all.attempted
	res.failed += all.failed
	highP50 := median(highP50s)
	fmt.Printf("samples: low %d windows, high %d windows, closed %d windows; %d set-ups, %.4f–%.4f s\n",
		len(low.lat), len(high.lat), closed.attempted, len(setups), slices.Min(setups), slices.Max(setups))
	fmt.Printf("closed-loop windows/s by round: %.0f\n", rates)
	fmt.Printf("host CPU steal by round, %% of one CPU: %.0f\n", steals)
	if !o.trace {
		res.metrics["setup_s"] = median(setups)
		res.metrics["window_p50_ms.low"] = median(low.lat)
		res.metrics["window_p99_ms.low"] = quantile(low.lat, 0.99)
		res.metrics["windows_per_s"] = median(rates)
		res.metrics["peak_rss_mb"] = peakRSSMB()
		return res, nil
	}

	m := res.metrics
	m["window_p50_ms.high"] = highP50
	m["window_p99_ms.high"] = median(highP99s)
	m["bench.generator_lag_p99_ms"] = quantile(append(low.lags, high.lags...), 0.99)
	m["bench.trace_overhead_pct"] = (median(untraced)/median(rates) - 1) * 100
	m["serve.session_open_ms"] = median(all.opens)
	m["serve.credit_stalls_per_window"] = float64(stEnd.stalls-st0.stalls) / float64(all.attempted)
	m["serve.round_p50_ms"] = ms(highHist.Quantile(0.5))
	fill := 1.0
	if sched.Ticks > 0 {
		fill = float64(sched.Windows) / float64(sched.Ticks)
		m["stream.batch_fill"] = fill
		m["stream.deferrals_per_window"] = float64(sched.Deferrals) / float64(sched.Windows)
	}
	if w.routed {
		m["serve.router.proxy_p50_ms"] = routerSnap.ProxyP50Ms
		m["serve.router.proxy_p99_ms"] = routerSnap.ProxyP99Ms
		var d []float64
		for i := range stEnd.placements {
			d = append(d, float64(stEnd.placements[i]-st0.placements[i]))
		}
		if mu := mean(d); mu > 0 {
			m["serve.router.placement_skew"] = (slices.Max(d) - slices.Min(d)) / mu
		}
	}

	front, samples, err := frontProbe(tr, recs, w.secure, time.Second)
	if err != nil {
		return nil, err
	}
	for k, v := range front {
		m[k] = v
	}
	m["serve.unattributed_ms.p50"] = highP50 - (front["dvs.decode_us_per_window"]+
		front["defense.incaqf_us_per_window"]+front["dvs.voxelize_us_per_window"])/1000 - m["serve.round_p50_ms"]
	b := max(1, int(math.Round(fill)))
	for _, tier := range []snn.PrecisionTier{snn.TierFP32, snn.TierINT8} {
		for _, workers := range []int{1, 2} {
			ps, err := predictProbe(tr, ckpt, samples, b, tier, workers, 500*time.Millisecond)
			if err != nil {
				return nil, err
			}
			m[fmt.Sprintf("snn.predict_us_per_window.%s.w%d", tier, workers)] = ps.usPerWindow
			if workers == 2 {
				m["snn.ns_per_sop."+tier.String()] = ps.nsPerSOP
				if tier == w.tier {
					m["snn.allocs_per_window.w2"] = ps.allocsPerWindow
				}
			}
		}
	}
	m["tensor.gemm_ns_per_mac.fp32"], m["tensor.gemm_ns_per_mac.int8"] = gemmProbe(tr, b, o.seed, 600*time.Millisecond)
	if w.secure {
		rm, att, fail, err := robustnessProbe(tr, ckpt, o.seed, 6*time.Second)
		if err != nil {
			return nil, err
		}
		for k, v := range rm {
			m[k] = v
		}
		res.attempted += att
		res.failed += fail
	}
	tr.WriteTable(os.Stderr)
	if o.out != "" {
		dir := filepath.Join(o.out, "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.WriteFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	}
	return res, nil
}
