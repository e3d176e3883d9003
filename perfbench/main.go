// Command perfbench is the repository's benchmark. It runs one workload
// of the serving stack from a seed, checks every served window against a
// standalone reference, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a traced run) as one JSON line:
//
//	bash perfbench/run.sh --high-rate serve-aqf-direct:600,serve-int8-routed:1200 \
//	    --workload serve-aqf-direct --seed 1 --seconds 50 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// serveWorkers is the tensor worker pool of the serving runs. The load
// generator shares the host's 2 CPUs with the server, and on such a host
// one worker classifies faster and steadier than two (README.md,
// Findings). The per-layer probes time 1 and 2 workers.
const serveWorkers = 1

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"window_p50_ms.low", "ms"},
	{"window_p99_ms.low", "ms"},
	{"windows_per_s", "1/s"},
}

// perLayer lists every metric of the traced run. A workload that does not
// exercise a layer reports it as 0 (README.md says which). The .high
// window latencies are here, without a bound, because host stalls made
// them too noisy to gate on (README.md).
var perLayer = []metricDef{
	{"window_p50_ms.high", "ms"},
	{"window_p99_ms.high", "ms"},
	{"dvs.decode_us_per_window", "us"},
	{"dvs.voxelize_us_per_window", "us"},
	{"dvs.events_per_window", "count"},
	{"defense.incaqf_us_per_window", "us"},
	{"defense.incaqf_kept_ratio", "ratio"},
	{"defense.aqf_ms_per_stream", "ms"},
	{"snn.predict_us_per_window.fp32.w1", "us"},
	{"snn.predict_us_per_window.fp32.w2", "us"},
	{"snn.predict_us_per_window.int8.w1", "us"},
	{"snn.predict_us_per_window.int8.w2", "us"},
	{"snn.ns_per_sop.fp32", "ns"},
	{"snn.ns_per_sop.int8", "ns"},
	{"snn.allocs_per_window.w2", "count"},
	{"tensor.gemm_ns_per_mac.fp32", "ns"},
	{"tensor.gemm_ns_per_mac.int8", "ns"},
	{"snn.input_grad_ms_per_batch", "ms"},
	{"attack.pgd_ms_per_batch", "ms"},
	{"snn.predict_us_per_sample.static", "us"},
	{"attack.sparse_ms_per_stream", "ms"},
	{"attack.sparse_iters_per_stream", "count"},
	{"approx.approximate_ms", "ms"},
	{"stream.batch_fill", "count"},
	{"stream.deferrals_per_window", "count"},
	{"serve.round_p50_ms", "ms"},
	{"serve.unattributed_ms.p50", "ms"},
	{"serve.session_open_ms", "ms"},
	{"serve.credit_stalls_per_window", "count"},
	{"serve.router.proxy_p50_ms", "ms"},
	{"serve.router.proxy_p99_ms", "ms"},
	{"serve.router.placement_skew", "ratio"},
	{"bench.generator_lag_p99_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	var rates string
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 50, "measured time of the run's phases")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fs.StringVar(&rates, "high-rate", "", "fixed .high rates in windows/s, as workload:rate,...")
	fs.StringVar(&o.out, "out", "", "directory for the traced run's span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o.trace = trace == 1
	for _, kv := range strings.Split(rates, ",") {
		name, v, found := strings.Cut(kv, ":")
		if found && name == o.workload {
			r, err := strconv.ParseFloat(v, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: bad --high-rate %q: %v\n", kv, err)
				return 2
			}
			o.highRate = r
		}
	}

	tensor.SetWorkers(serveWorkers)
	env := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "tensor_workers": tensor.Workers(),
		"nproc": runtime.NumCPU(), "cpu_model": cpuModel(), "go_version": runtime.Version(),
		"low_rate_windows_per_s": float64(clients) * 1000 / windowMS, "high_rate_windows_per_s": o.highRate,
	}
	envLine, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Printf("env %s\n", envLine)

	res, err := runServing(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	rep := report{
		Correct: res.failed == 0 && res.attempted > 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: res.metrics[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// stealSeconds reads the CPU time the hypervisor has taken from this
// machine's virtual CPUs since boot (the steal column of /proc/stat),
// 0 where it is not reported.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}
