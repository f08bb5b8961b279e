// Command perfbench is the repository's end-to-end benchmark. It drives the
// engine only through its public APIs (plan.Builder, exec.Graph, exec
// sources and operators, core.GuardTable, checkpoint statuses, Graph.Edges,
// the telemetry registry, the distributed checkpoint pair and the remote
// transport) and times the calls from its own files; it adds no code inside
// the engine.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload groupby-max --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//   - groupby-max: closed loop. A pre-generated, in-order, punctuated traffic
//     stream over 1024 uniform keys through the compiled select → project →
//     Parallel(NumCPU) AVG GROUP BY plan; no feedback, checkpoints or
//     telemetry. Exercises queue, exec, fuse, the aggregate apply and the
//     exchange; core, snapshot and remote are absent.
//   - speedmap-feedback: closed loop. The paper's Figure 1(b) plan at 512
//     segments with the join's adaptive per-(segment, window) assumed
//     feedback; probe and sensor inputs are released in stream-time
//     lockstep. The only workload where guard install and probe dominate.
//   - ingest-remote: open loop. A rated producer → loopback TCP → Parallel(2)
//     AVG aggregate → sink, at three fixed offered rates, with Zipf keys,
//     bounded disorder, incremental distributed checkpoints, telemetry
//     scraped once a second and a zoom-style In-set feedback per window
//     sent back across the wire; then a kill and a restore from the last
//     committed epoch.
//
// With --trace 0 the last line of standard output is a JSON object carrying
// the end-to-end metrics; with --trace 1 a separate traced run reports the
// per-layer metrics (operator and edge counters, telemetry, checkpoint
// statuses, timed guard-table calls, a layer ladder and CPU/block profiles
// parsed with `go tool pprof`). Every run checks the engine's results
// against reference oracles computed outside the timed spans.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// result is what one workload run produces: end-to-end metrics (reported
// with --trace 0), per-layer metrics (reported with --trace 1), and the
// correctness accounting shared by both.
type result struct {
	e2e       map[string]metric
	layer     map[string]metric
	attempted int64
	failed    int64
	errs      []string
}

// metric is one reported value with its unit and, for timings, the
// distribution it summarises.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Hi      float64 `json:"hi,omitempty"`
	HiLabel string  `json:"hi_label,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// fail records one failed operation with its reason (the first few reasons
// are printed; the count is what the JSON carries).
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// setE2E records an end-to-end metric from a sample distribution.
func (r *result) setE2E(name, unit string, d dist) { r.e2e[name] = d.metric(unit) }

// setE2EValue records an end-to-end metric that is a single value.
func (r *result) setE2EValue(name, unit string, v float64) {
	r.e2e[name] = metric{Value: v, Unit: unit, Samples: 1}
}

// setLayer records a per-layer metric.
func (r *result) setLayer(name, unit string, v float64) {
	r.layer[name] = metric{Value: v, Unit: unit}
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

var workloads = map[string]func(config) (*result, error){
	"groupby-max":       runGroupBy,
	"speedmap-feedback": runSpeedmap,
	"ingest-remote":     runIngest,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: groupby-max, speedmap-feedback or ingest-remote")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated inputs")
	flag.IntVar(&cfg.seconds, "seconds", 15, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if err := loadSpec(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	emit(cfg, res)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// emit prints the human-readable report, the stamped result record, and
// the final JSON line a harness parses.
func emit(cfg config, res *result) {
	st := stampOf(cfg)
	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%v GOMAXPROCS=%d NumCPU=%d %s commit=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, st.GOMAXPROCS, st.NumCPU, st.GoVersion, st.Commit)
	printTable("end-to-end", res.e2e)
	if cfg.trace {
		printTable("per-layer", res.layer)
	}
	for _, e := range res.errs {
		fmt.Printf("# FAILED: %s\n", e)
	}
	rec := struct {
		Stamp     stamp             `json:"stamp"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		EndToEnd  map[string]metric `json:"end_to_end"`
		PerLayer  map[string]metric `json:"per_layer,omitempty"`
	}{st, res.attempted, res.failed, res.e2e, nil}
	if cfg.trace {
		rec.PerLayer = res.layer
	}
	line, _ := json.Marshal(rec)
	fmt.Printf("# record %s\n", line)

	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]valueMetric `json:"metrics"`
	}{res.failed == 0, max(res.attempted, 1), res.failed, map[string]valueMetric{}}
	src := res.e2e
	names := e2eNames
	if cfg.trace {
		src, names = res.layer, layerNames
	}
	for _, n := range names {
		m, ok := src[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", n)
			os.Exit(1)
		}
		out.Metrics[n] = valueMetric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// valueMetric is the form of a metric on the final JSON line.
type valueMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printTable(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s metrics\n", title)
	for _, n := range names {
		m := ms[n]
		extra := ""
		if m.HiLabel != "" {
			extra = fmt.Sprintf("  %s=%.6g", m.HiLabel, m.Hi)
		}
		if m.Samples > 1 {
			extra += fmt.Sprintf("  n=%d", m.Samples)
		}
		fmt.Printf("#   %-44s %14.6g %-10s%s\n", n, m.Value, m.Unit, extra)
	}
}

// stamp identifies the conditions a record was measured under.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// commit is set at link time by run.sh when the checkout is a git
// repository; otherwise the record carries a hash of the engine sources.
var commit = ""

func stampOf(cfg config) stamp {
	c := commit
	if c == "" {
		c = "tree:" + sourceTreeHash()
	}
	return stamp{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: c,
	}
}
