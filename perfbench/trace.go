package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	execpkg "repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// traceDir holds the traced run's profiles, inside the checkout's build
// directory.
const traceDir = ".bench_build/trace"

// tracer accumulates the per-layer metrics of a traced run: counters read
// from telemetry scrapes, operator stats and Graph.Edges after each plan,
// sampled queue depths, and the CPU and block profiles of the traced phase.
// sampleDepth is a no-op on a nil receiver so untraced phases share code.
type tracer struct {
	res *result

	cpuPath, blockPath string
	cpuFile            *os.File

	mu    sync.Mutex
	depth dist

	tuples                                int64 // input tuples over traced plans
	prom                                  map[string]float64
	edgeTuples, edgePages, edgePunctFlush int64
	skew                                  dist
	fusions                               int
	feedbackSent                          int64
	selectSupp, aggSupp, joinSupp         int64
}

func newTracer(res *result) *tracer {
	return &tracer{res: res, prom: map[string]float64{}}
}

// startProfiles begins CPU and block profiling of the traced phase.
func (t *tracer) startProfiles() error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	t.cpuPath = filepath.Join(traceDir, "cpu.pprof")
	t.blockPath = filepath.Join(traceDir, "block.pprof")
	f, err := os.Create(t.cpuPath)
	if err != nil {
		return err
	}
	t.cpuFile = f
	runtime.SetBlockProfileRate(10_000) // sample blocking events of ~10µs and longer
	return pprof.StartCPUProfile(f)
}

// stopProfiles ends profiling and writes the block profile.
func (t *tracer) stopProfiles() error {
	pprof.StopCPUProfile()
	runtime.SetBlockProfileRate(0)
	if err := t.cpuFile.Close(); err != nil {
		return err
	}
	f, err := os.Create(t.blockPath)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("block").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sampleDepth samples the deepest edge queue of the graphs every 10ms
// once ready reports the plan running, until the returned stop is called.
func (t *tracer) sampleDepth(ready func() bool, graphs ...*execpkg.Graph) (stop func()) {
	if t == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if !ready() {
				continue
			}
			deepest := 0
			for _, g := range graphs {
				for _, e := range g.Edges() {
					deepest = max(deepest, e.Depth)
				}
			}
			t.mu.Lock()
			t.depth = append(t.depth, float64(deepest))
			t.mu.Unlock()
		}
	}()
	return func() { close(done); wg.Wait() }
}

// addPlan folds one finished traced plan into the accumulators: its
// telemetry scrape, its edges and its fusions.
func (t *tracer) addPlan(b *plan.Builder, tel *telemetry.Telemetry, tuples int64) {
	t.tuples += tuples
	t.addScrape(tel)
	t.addEdges(b.Graph().Edges())
	t.fusions = max(t.fusions, len(b.Fusions()))
}

// addScrape sums the node-level series of a telemetry scrape.
func (t *tracer) addScrape(tel *telemetry.Telemetry) {
	var buf bytes.Buffer
	tel.Registry.WritePrometheus(&buf)
	for name, v := range sumSeries(buf.String()) {
		t.prom[name] += v
	}
}

// sumSeries sums every Prometheus sample by family name; remote series are
// additionally keyed by their operator label ("name@op").
func sumSeries(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		out[name] += v
		if strings.HasPrefix(name, "pace_remote_") {
			if i := strings.Index(labels, `op="`); i >= 0 {
				op := labels[i+4:]
				op = op[:strings.IndexByte(op, '"')]
				out[name+"@"+op] += v
			}
		}
	}
	return out
}

// addEdges sums edge traffic and the partition skew of split edges: the
// busiest partition's tuples over the mean partition's.
func (t *tracer) addEdges(edges []execpkg.EdgeInfo) {
	var parts dist
	for _, e := range edges {
		t.edgeTuples += e.Stats.Tuples
		t.edgePages += e.Stats.Pages
		t.edgePunctFlush += e.Stats.PunctFlushes
		// Split edges may leave a fused node whose name embeds the split's.
		if strings.HasPrefix(e.Label, "part=") && strings.Contains(e.Producer, ".split") {
			parts = append(parts, float64(e.Stats.Tuples))
		}
	}
	if len(parts) > 0 && parts.mean() > 0 {
		t.skew = append(t.skew, parts.max()/parts.mean())
	}
}

// overhead records the traced phase's own end-to-end numbers and how much
// tracing cost against the untraced phase of the same run.
func (t *tracer) overhead(untraced, traced map[string]metric) {
	for _, n := range []string{"throughput_tps", "cpu_ns_per_tuple", "latency_p99_ms"} {
		t.res.setLayer("traced."+n, traced[n].Unit, traced[n].Value)
	}
	if u := untraced["cpu_ns_per_tuple"].Value; u > 0 {
		t.res.setLayer("trace.overhead_cpu_frac", "ratio", traced["cpu_ns_per_tuple"].Value/u-1)
	}
}

// finish derives the per-layer metrics from the accumulators, times the
// guard table with the workload's pattern shapes, runs the layer ladder
// and attributes the profiles to modules.
func (t *tracer) finish(shape guardShape, traffic *input) error {
	r := t.res
	perK := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return 1000 * n / d
	}
	ratio := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	// End-to-end numbers of the untraced phase that are not gated end to
	// end: those only some workloads have, and the latencies, whose
	// run-to-run spread on a shared 2-core host exceeds any usable bound.
	for _, n := range layerNames {
		if m, ok := r.e2e[n]; ok {
			r.setLayer(n, m.Unit, m.Value)
		}
	}
	r.setLayer("failed_frac", "ratio", ratio(float64(r.failed), float64(r.attempted)))
	p := t.prom
	r.setLayer("core.feedback_sent", "count", float64(t.feedbackSent))
	r.setLayer("exec.feedback_in", "count", p["pace_node_feedback_in_total"])
	r.setLayer("exec.feedback_out", "count", p["pace_node_feedback_out_total"])
	r.setLayer("exec.batch_size_mean", "tuples", ratio(p["pace_node_batch_size_sum"], p["pace_node_batch_size_count"]))
	r.setLayer("exec.rechecks_per_ktuple", "count", perK(p["pace_node_control_rechecks_total"], p["pace_node_tuples_in_total"]))
	r.setLayer("op.select.suppressed", "count", float64(t.selectSupp))
	r.setLayer("op.aggregate.folds_suppressed", "count", float64(t.aggSupp))
	r.setLayer("op.join.suppressed_in", "count", float64(t.joinSupp))
	r.setLayer("queue.tuples_per_page", "tuples", ratio(float64(t.edgeTuples), float64(t.edgePages)))
	r.setLayer("queue.punct_flushes_per_ktuple", "count", perK(float64(t.edgePunctFlush), float64(t.edgeTuples)))
	r.setLayer("queue.depth_p99_pages", "pages", t.depth.quantile(0.99))
	r.setLayer("op.exchange.partition_skew", "ratio", t.skew.median())
	r.setLayer("fuse.fusions", "count", float64(t.fusions))

	t0 := time.Now()
	for _, g := range []int{8, 128, 1024} {
		install, suppress := timeGuards(shape, g)
		r.setLayer(fmt.Sprintf("core.guard_install_ns.g%d", g), "ns", install)
		r.setLayer(fmt.Sprintf("core.guard_suppress_ns.g%d", g), "ns", suppress)
	}
	t1 := time.Now()
	if err := runLadder(r, traffic); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	t2 := time.Now()
	if err := t.attribute(); err != nil {
		return fmt.Errorf("profiles: %w", err)
	}
	fmt.Printf("# traced run: guard timing %.1f s, ladder %.1f s, profile attribution %.1f s\n",
		t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds())
	for _, n := range layerNames {
		if _, ok := r.layer[n]; !ok {
			// The layer is absent from this workload's plan: nothing ran.
			r.setLayer(n, layerUnits[n], 0)
		}
	}
	return nil
}

// guardShape describes a workload's feedback patterns for timed direct
// calls into core.GuardTable: pattern(i) is the i-th distinct guard, and
// probes are real input tuples none of the guards match (the full scan).
type guardShape struct {
	arity   int
	pattern func(i int) punct.Pattern
	probes  []stream.Tuple
}

// timeGuards returns the mean ns per Install while filling a table to g
// guards, and the mean ns per Suppress probe against the full table; each
// is the median of up to seven repetitions, fewer when one takes over a
// second (In-set shapes at 1024 guards).
func timeGuards(shape guardShape, g int) (installNS, suppressNS float64) {
	var ins, sup dist
	fb := make([]core.Feedback, g)
	for i := range fb {
		fb[i] = core.Feedback{Intent: core.Assumed, Pattern: shape.pattern(i), Origin: feedbackOrigin, Seq: int64(i + 1)}
	}
	for start, rep := time.Now(), 0; rep < 7 && (rep == 0 || time.Since(start) < time.Second); rep++ {
		tab := core.NewGuardTable(shape.arity)
		t0 := time.Now()
		for _, f := range fb {
			tab.Install(f)
		}
		ins = append(ins, float64(time.Since(t0).Nanoseconds())/float64(g))
		if tab.Active() != g {
			panic(fmt.Sprintf("perfbench: guard shape merged %d of %d guards", g-tab.Active(), g))
		}
		n := 0
		t0 = time.Now()
		for n < 20_000 {
			for _, pt := range shape.probes {
				if tab.Suppress(pt) {
					panic("perfbench: guard shape probe matched a guard")
				}
			}
			n += len(shape.probes)
		}
		sup = append(sup, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return ins.median(), sup.median()
}

// modules maps package paths to the layer names of the self_cpu metrics.
var modules = []struct{ prefix, name string }{
	{"repro/internal/queue.", "queue"},
	{"repro/internal/exec.", "exec"},
	{"repro/internal/fuse.", "fuse"},
	{"repro/internal/op.", "op"},
	{"repro/internal/core.", "core"},
	{"repro/internal/punct.", "punct"},
	{"repro/internal/stream.", "stream"},
	{"repro/internal/snapshot.", "snapshot"},
	{"repro/internal/remote.", "remote"},
	{"repro/internal/telemetry.", "telemetry"},
	{"repro/internal/work.", "work"},
	{"repro/internal/", "other"},
	{"main.", "bench"},
	{"runtime.", "runtime"},
	{"runtime/", "runtime"},
	{"internal/runtime/", "runtime"},
}

func moduleOf(fn string) string {
	if !strings.ContainsAny(fn, "./") {
		return "runtime" // assembly helpers such as memmove and aeshashbody
	}
	for _, m := range modules {
		if strings.HasPrefix(fn, m.prefix) {
			return m.name
		}
	}
	return "other"
}

// attribute parses the traced phase's profiles with `go tool pprof
// -traces`: self CPU per module (the leaf frame of each sample) in ns per
// input tuple, and time blocked in queue put (a producer waiting for page
// room) and get (a node runner waiting for input) in ns per input tuple.
func (t *tracer) attribute() error {
	if t.tuples == 0 {
		return fmt.Errorf("no traced tuples")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cpu, err := pprofTraces(exe, t.cpuPath)
	if err != nil {
		return err
	}
	self := map[string]float64{}
	var guardCum float64
	for _, s := range cpu {
		self[moduleOf(s.frames[0])] += s.ns
		for _, f := range s.frames {
			if strings.HasPrefix(f, "repro/internal/core.(*GuardTable).") {
				guardCum += s.ns
				break
			}
		}
	}
	for _, m := range modules {
		t.res.setLayer("self_cpu."+m.name, "ns/tuple", self[m.name]/float64(t.tuples))
	}
	// Guard install and probe spend their own time in punct and stream
	// (pattern implication and value comparison); the inclusive figure is
	// what the guard table costs.
	t.res.setLayer("cum_cpu.core.guard_table", "ns/tuple", guardCum/float64(t.tuples))
	block, err := pprofTraces(exe, t.blockPath)
	if err != nil {
		return err
	}
	var put, get float64
	for _, s := range block {
		switch blockedIn(s.frames) {
		case "put":
			put += s.ns
		case "get":
			get += s.ns
		}
	}
	t.res.setLayer("blocked.queue.put", "ns/tuple", put/float64(t.tuples))
	t.res.setLayer("blocked.queue.get", "ns/tuple", get/float64(t.tuples))
	return nil
}

// blockedIn classifies a blocking stack: a queue producer call (page
// hand-off waiting for room) is a put; a node runner waiting on its input
// channels is a get.
func blockedIn(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "repro/internal/queue.(*Conn).Put") || strings.HasPrefix(f, "repro/internal/queue.(*Conn).Flush") {
			return "put"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "repro/internal/exec.(*nodeRunner).run") {
			return "get"
		}
	}
	return ""
}

// pprofSample is one stack of a profile with its value in nanoseconds.
type pprofSample struct {
	ns     float64
	frames []string // leaf first
}

// pprofTraces runs `go tool pprof -traces` and parses its stacks.
func pprofTraces(exe, profile string) ([]pprofSample, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", exe, profile)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", profile, err, stderr.String())
	}
	var samples []pprofSample
	var cur *pprofSample
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		if !strings.HasPrefix(line, " ") || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if cur == nil {
			if len(fields) < 2 {
				continue
			}
			ns, ok := parseDuration(fields[0])
			if !ok {
				continue
			}
			samples = append(samples, pprofSample{ns: ns, frames: []string{fields[1]}})
			cur = &samples[len(samples)-1]
			continue
		}
		cur.frames = append(cur.frames, fields[0])
	}
	return samples, nil
}

// parseDuration reads pprof's rendering of a time value ("10ms", "1.50s").
func parseDuration(s string) (float64, bool) {
	units := []struct {
		suffix string
		ns     float64
	}{{"ns", 1}, {"us", 1e3}, {"µs", 1e3}, {"ms", 1e6}, {"hrs", 3600e9}, {"mins", 60e9}, {"s", 1e9}}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.ns, err == nil
		}
	}
	return 0, false
}
