// Command perfbench is the repository's benchmark: it drives the
// run-time spatial mapper and the /admit service in-process, measures
// end-to-end metrics with tracing off, per-layer metrics in a separate
// traced run, checks every output, and prints one JSON result line.
//
//	go run . --workload admit-warm --seed 1 --seconds 36 --trace 0
//
// Workloads, metrics and the layer-to-metric predictions are described
// in README.md next to this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"slo_attainment", "ratio"},
	{"success_ratio", "ratio"},
	{"cpu_ms_per_req", "ms"},
	{"alloc_kb_per_req", "kB"},
	{"heap_live_p90_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of single layers, printed by every traced
// run. A layer the workload does not cross reads 0.
var perLayer = []metricDef{
	{"gen.late_ms_p99", "ms"},
	{"gen.late_ms_max", "ms"},
	{"front.self_ms_p50", "ms"},
	{"front.decode_us_p50", "us"},
	{"front.retries_per_req", "1/req"},
	{"front.busy", "count"},
	{"front.rejected", "count"},
	{"front.timeout", "count"},
	{"stream.self_ms_p50", "ms"},
	{"stream.self_ms_p99", "ms"},
	{"stream.shed_ratio", "ratio"},
	{"stream.dlq_recovered", "count"},
	{"stream.dlq_expired", "count"},
	{"stream.breaker_opens", "count"},
	{"manager.service_ms_p50", "ms"},
	{"manager.service_ms_p99", "ms"},
	{"manager.queue_wait_ms_p50", "ms"},
	{"manager.queue_wait_ms_p99", "ms"},
	{"manager.map_ms_p50", "ms"},
	{"manager.repair_ms_p50", "ms"},
	{"manager.commit_ms_p50", "ms"},
	{"manager.attempts_per_req", "1/req"},
	{"manager.template_hit_ratio", "ratio"},
	{"manager.conflicts_per_admit", "1/admit"},
	{"manager.full_remaps_per_admit", "1/admit"},
	{"manager.preemptions", "count"},
	{"core.map_ms_p50", "ms"},
	{"core.refinements_per_map", "1/map"},
	{"csdf.buffer_sizing_ms_p50", "ms"},
	{"csdf.step4_share", "ratio"},
	{"arch.snapshots_per_admit", "1/admit"},
	{"arch.cow_faults_per_admit", "1/admit"},
	{"journal.bytes_per_admit", "B/admit"},
	{"journal.writes_per_admit", "1/admit"},
	{"journal.write_us_p50", "us"},
	{"journal.fsyncs", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.self_sum_err_max", "ratio"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// workdir receives the journal file and the span dump.
	workdir string
	// dupNames makes the admit decoder reuse one application name, a
	// deliberately broken input the output checks must catch.
	dupNames bool
}

// report is what a workload measured. Metrics missing from layer read 0
// (the workload does not cross that layer); every end-to-end metric must
// be present.
type report struct {
	attempted, failed int
	e2e, layer        map[string]float64
}

// checkError is a failed output check: the run is wrong, not merely slow.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "output check failed: " + e.msg }

func checkFailed(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

var workloads = map[string]func(runConfig) (report, error){
	"hiperlan2-map": runHiperlan2,
	"admit-cold":    func(c runConfig) (report, error) { return runAdmit(c, coldParams) },
	"admit-warm":    func(c runConfig) (report, error) { return runAdmit(c, warmParams) },
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags, runs one workload and prints the result as the
// last line of stdout. Exit code 0 means every output check passed, 1 a
// failed check, 2 a usage or environment error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: admit-cold, admit-warm or hiperlan2-map")
	seed := fs.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := fs.Int("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for the journal file and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {admit-cold|admit-warm|hiperlan2-map}, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, workdir: *workdir}
	rep, err := w(cfg)
	var ce *checkError
	if errors.As(err, &ce) {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		printResult(stdout, resultLine{Correct: false, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}})
		return 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	out, err := selectMetrics(rep, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	printResult(stdout, resultLine{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: out})
	return 0
}

// selectMetrics picks the metric set this run prints: per-layer for a
// traced run, end-to-end otherwise.
func selectMetrics(rep report, traced bool) (map[string]metricOut, error) {
	defs, vals := endToEnd, rep.e2e
	if traced {
		defs, vals = perLayer, rep.layer
	}
	out := make(map[string]metricOut, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		v, ok := vals[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		out[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	var unknown []string
	for k := range vals {
		if !known[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics measured but not declared: %v", unknown)
	}
	return out, nil
}

func printResult(w io.Writer, r resultLine) {
	b, _ := json.Marshal(r) // plain structs and finite floats cannot fail to encode
	fmt.Fprintln(w, string(b))
}
