package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/window"
)

// groupby-max input: 500k in-order traffic reports over 1024 uniform keys,
// 100µs of stream time apart, a progress punctuation every 512 tuples and
// 5 s tumbling windows (ten windows, ~45 folds per key and window).
const (
	gbTuples     = 500_000
	gbKeys       = 1024
	gbStepUS     = 100
	gbWindowUS   = 5_000_000
	gbPunctEvery = 512
	gbMinSpeed   = 10.0
)

// genTraffic builds the groupby-max input from the seed.
func genTraffic(seed int64, n int) *input {
	r := rand.New(rand.NewSource(seed))
	vals := make([]stream.Value, 4*n)
	in := &input{tuples: make([]stream.Tuple, n)}
	for i := 0; i < n; i++ {
		v := vals[4*i : 4*i+4 : 4*i+4]
		v[0] = stream.Int(int64(r.Intn(gbKeys)))
		v[1] = stream.Int(int64(r.Intn(40)))
		v[2] = stream.TimeMicros(int64(i) * gbStepUS)
		v[3] = stream.Float(r.Float64() * 100)
		in.tuples[i] = stream.Tuple{Values: v, Seq: int64(i + 1)}
		if (i+1)%gbPunctEvery == 0 || i == n-1 {
			in.puncts = append(in.puncts, punctMark{after: i + 1,
				e: punct.NewEmbedded(punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(int64(i)*gbStepUS))))})
		}
	}
	return in
}

// gbRef is the plain-Go reference: AVG(speed) per (segment, window) over
// the tuples the select keeps.
type gbRef struct {
	sum     []float64
	cnt     []int64
	windows int
	rows    int
	// closer[w] is the index of the punctuation that closes window w.
	closer []int
}

func newGBRef(in *input) *gbRef {
	last := in.tuples[len(in.tuples)-1].Values[2].Micros()
	windows := int(last/gbWindowUS) + 1
	ref := &gbRef{sum: make([]float64, windows*gbKeys), cnt: make([]int64, windows*gbKeys), windows: windows}
	for _, t := range in.tuples {
		if t.Values[3].AsFloat() < gbMinSpeed {
			continue
		}
		i := int(t.Values[2].Micros()/gbWindowUS)*gbKeys + int(t.Values[0].I)
		ref.sum[i] += t.Values[3].AsFloat()
		ref.cnt[i]++
	}
	for _, c := range ref.cnt {
		if c > 0 {
			ref.rows++
		}
	}
	ref.closer = closers(in, 2, gbWindowUS, windows)
	return ref
}

// closers maps each window to the first punctuation on the ts attribute
// whose bound reaches the window's last microsecond.
func closers(in *input, tsAttr int, windowUS int64, windows int) []int {
	out := make([]int, windows)
	w := 0
	for pi, m := range in.puncts {
		pr := m.e.Pattern.Pred(tsAttr)
		bound := pr.Val.Micros()
		if pr.Op == punct.LT {
			bound--
		}
		for w < windows && bound >= int64(w+1)*windowUS-1 {
			out[w] = pi
			w++
		}
	}
	for ; w < windows; w++ {
		out[w] = len(in.puncts) - 1 // closed by end of stream
	}
	return out
}

// check compares one pass's rows with the reference; every row is one
// attempted operation, and a missing, duplicate or wrong row one failure.
func (ref *gbRef) check(res *result, rows []row) {
	seen := make([]bool, len(ref.cnt))
	for _, rw := range rows {
		seg, ws, avg := rw.t.Values[0].I, rw.t.Values[1].Micros(), rw.t.Values[2].AsFloat()
		w := ws / gbWindowUS
		if seg < 0 || seg >= gbKeys || w < 0 || int(w) >= ref.windows || ws%gbWindowUS != 0 {
			res.fail("groupby-max: invented row %v", rw.t)
			continue
		}
		i := int(w)*gbKeys + int(seg)
		switch {
		case ref.cnt[i] == 0:
			res.fail("groupby-max: invented row %v", rw.t)
		case seen[i]:
			res.fail("groupby-max: duplicate row %v", rw.t)
		case !closeTo(avg, ref.sum[i]/float64(ref.cnt[i])):
			res.fail("groupby-max: row %v, want avg %v", rw.t, ref.sum[i]/float64(ref.cnt[i]))
		}
		seen[i] = true
	}
	res.attempted += int64(ref.rows)
	for i, c := range ref.cnt {
		if c > 0 && !seen[i] {
			res.fail("groupby-max: missing row segment=%d window=%d", i%gbKeys, i/gbKeys)
		}
	}
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// latencies appends each row's latency in ms: from the emission of the
// punctuation that closed its window to its arrival at the sink.
func (ref *gbRef) latencies(d dist, rows []row, punctAt []int64) dist {
	for _, rw := range rows {
		w := int(rw.t.Values[1].Micros() / gbWindowUS)
		if w < 0 || w >= len(ref.closer) {
			continue
		}
		d = append(d, float64(rw.at-punctAt[ref.closer[w]])/1e6)
	}
	return d
}

// gbPlan is one built groupby-max plan.
type gbPlan struct {
	b    *plan.Builder
	src  *replaySource
	sink *rowSink
}

// buildGroupBy assembles the compiled select → project → Parallel(n) AVG
// GROUP BY plan over the input.
func buildGroupBy(in *input, parts int, rows []row, tel *telemetry.Telemetry) gbPlan {
	b := plan.New()
	src := newReplaySource("traffic", gen.TrafficSchema, in, false)
	out := b.Source(src).
		SelectExpr("hot", op.ExprStep{Col: 3, Name: "speed", Pred: punct.Ge(stream.Float(gbMinSpeed))}).
		Project("keep", "segment", "ts", "speed").
		Parallel("part", parts, []string{"segment"}, func(s plan.Stream) plan.Stream {
			return s.Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"},
				window.Tumbling(gbWindowUS), "avg_speed")
		})
	sink := newRowSink("sink", out.Schema(), rows)
	out.Into(sink)
	b.Compile()
	if tel != nil {
		b.EnableTelemetry(tel)
	}
	return gbPlan{b: b, src: src, sink: sink}
}

// passStats is one closed-loop pass: set-up, Run wall time, CPU and bytes
// allocated over the pass, and the input tuples it consumed.
type passStats struct {
	setup, wall, cpu time.Duration
	alloc            uint64
	tuples           int64
}

// closedLoop runs passes back to back until budget has elapsed (and at
// least three ran), with the heap sampler on only while a plan is built and
// run. pass prepares the harness side of one pass (result buffers, feedback
// clocks) outside the timed span and returns run, which builds and runs the
// plan inside it and returns its set-up and Run wall time, plus after,
// which checks the plan's results outside the span.
func closedLoop(res *result, workload string, budget time.Duration, tuples int64,
	pass func() (run func(sp span) (setup, wall time.Duration, after func(), err error))) ([]passStats, float64) {
	hs := startHeapSampler()
	var passes []passStats
	for start := time.Now(); len(passes) < 3 || time.Since(start) < budget; {
		run := pass()
		hs.setActive(true)
		sp := startSpan()
		setup, wall, after, err := run(sp)
		_, cpu, alloc := sp.end()
		hs.setActive(false)
		res.attempted++
		if err != nil {
			res.fail("%s: run: %v", workload, err)
			if res.failed > 3 {
				break
			}
			continue
		}
		passes = append(passes, passStats{setup: setup, wall: wall, cpu: cpu, alloc: alloc, tuples: tuples})
		after()
	}
	return passes, hs.close()
}

// timedRun runs a plan and returns its wall time.
func timedRun(run func() error) (time.Duration, error) {
	t0 := time.Now()
	err := run()
	return time.Since(t0), err
}

// closedLoopE2E turns the passes of a closed-loop workload into the
// end-to-end metrics shared by groupby-max and speedmap-feedback. CPU and
// allocation are ratios of sums over every pass, so garbage collection is
// charged in proportion wherever it happened to run.
func closedLoopE2E(res *result, passes []passStats, lat dist, peakMB float64) {
	var setup, tps dist
	var cpu time.Duration
	var alloc uint64
	var tuples int64
	for _, p := range passes {
		setup = append(setup, p.setup.Seconds())
		tps = append(tps, float64(p.tuples)/p.wall.Seconds())
		cpu += p.cpu
		alloc += p.alloc
		tuples += p.tuples
	}
	res.setE2E("setup_s", "s", setup)
	res.setE2E("throughput_tps", "tuples/s", tps)
	res.e2e["cpu_ns_per_tuple"] = metric{Value: float64(cpu) / float64(tuples), Unit: "ns", Samples: len(passes)}
	res.e2e["alloc_bytes_per_tuple"] = metric{Value: float64(alloc) / float64(tuples), Unit: "B", Samples: len(passes)}
	res.setE2EValue("peak_heap_mb", "MB", peakMB)
	p50, p99 := lat.metric("ms"), lat.metric("ms")
	p99.Value = lat.quantile(0.99)
	res.e2e["latency_p50_ms"] = p50
	res.e2e["latency_p99_ms"] = p99
}

// runGroupBy is the groupby-max workload.
func runGroupBy(cfg config) (*result, error) {
	in := genTraffic(cfg.seed, gbTuples)
	ref := newGBRef(in)
	parts := runtime.NumCPU()
	res := newResult()
	settle()
	tuples := int64(len(in.tuples))
	phase := func(budget time.Duration, tr *tracer) ([]passStats, dist, float64) {
		var lat dist
		passes, peak := closedLoop(res, "groupby-max", budget, tuples, func() func(span) (time.Duration, time.Duration, func(), error) {
			var tel *telemetry.Telemetry
			if tr != nil {
				tel = telemetry.New()
			}
			rows := make([]row, 0, ref.rows)
			return func(sp span) (time.Duration, time.Duration, func(), error) {
				p := buildGroupBy(in, parts, rows, tel)
				stopDepth := tr.sampleDepth(p.src.started, p.b.Graph())
				wall, err := timedRun(p.b.Run)
				stopDepth()
				return setupOf(sp, p.src), wall, func() {
					ref.check(res, p.sink.rows)
					lat = ref.latencies(lat, p.sink.rows, p.src.punctAt)
					if tr != nil {
						tr.addPlan(p.b, tel, tuples)
					}
				}, err
			}
		})
		return passes, lat, peak
	}
	budget := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		passes, lat, peak := phase(budget, nil)
		if len(passes) == 0 {
			return nil, fmt.Errorf("no pass completed")
		}
		closedLoopE2E(res, passes, lat, peak)
		fmt.Printf("# groupby-max: %d passes of %d tuples, %d keys, Parallel(%d), %d result rows per pass\n",
			len(passes), len(in.tuples), gbKeys, parts, ref.rows)
		return res, nil
	}
	tr := newTracer(res)
	passes, lat, peak := phase(budget/3, nil)
	if len(passes) == 0 {
		return nil, fmt.Errorf("no pass completed")
	}
	closedLoopE2E(res, passes, lat, peak)
	untraced := res.e2e
	res.e2e = map[string]metric{}
	if err := tr.startProfiles(); err != nil {
		return nil, err
	}
	passes, lat, peak = phase(budget/3, tr)
	if err := tr.stopProfiles(); err != nil {
		return nil, err
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("no traced pass completed")
	}
	closedLoopE2E(res, passes, lat, peak)
	tr.overhead(untraced, res.e2e)
	res.e2e = untraced
	return res, tr.finish(guardShapeTraffic(in), in)
}

// setupOf is the set-up time of a pass: from the start of the plan build
// to the source's first Next.
func setupOf(sp span, src *replaySource) time.Duration {
	return time.Duration(src.firstNext.Load() - sp.wall0.Sub(clockBase).Nanoseconds())
}
