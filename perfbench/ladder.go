package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// ladderTuples is the groupby-max input prefix each ladder rung replays.
const ladderTuples = 50_000

// A rung is one whole-plan run on groupby-max input that adds one layer to
// its parent rung; the ladder reports each rung's ns and CPU ns per tuple
// as the delta over its parent (source-sink is absolute).
type rung struct {
	name, parent string
	run          func(in *input) error
}

// discard is a sink that keeps nothing.
func discard(s stream.Schema) *exec.Collector {
	c := exec.NewCollector("sink", s)
	c.Discard = true
	return c
}

// guardSink is a discarding sink that, on open, asks its producer to
// suppress n subsets no tuple falls in: the select above it then probes n
// guards per tuple and suppresses nothing.
type guardSink struct {
	*exec.Collector
	n int
}

func (g *guardSink) Open(ctx exec.Context) error {
	for i := 0; i < g.n; i++ {
		ctx.SendFeedback(0, core.Feedback{Intent: core.Assumed, Origin: feedbackOrigin, Seq: int64(i + 1),
			Pattern: punct.NewPattern(punct.Eq(stream.Int(int64(gbKeys+i))), punct.Wild, punct.Wild, punct.Wild)})
	}
	return g.Collector.Open(ctx)
}

func hot(s plan.Stream) plan.Stream {
	return s.SelectExpr("hot", op.ExprStep{Col: 3, Name: "speed", Pred: punct.Ge(stream.Float(gbMinSpeed))})
}

func keep(s plan.Stream) plan.Stream { return hot(s).Project("keep", "segment", "ts", "speed") }

func avg(s plan.Stream) plan.Stream {
	return s.Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"}, window.Tumbling(gbWindowUS), "avg_speed")
}

func exchange(s plan.Stream) plan.Stream {
	return keep(s).Parallel("part", runtime.NumCPU(), []string{"segment"}, avg)
}

// runLocal builds one single-process rung plan and runs it, optionally
// under checkpoints every 20ms.
func runLocal(in *input, shape func(plan.Stream) plan.Stream, sink func(stream.Schema) exec.Operator, checkpoints bool) error {
	b := plan.New()
	b.Propagate = false
	out := shape(b.Source(newReplaySource("traffic", gen.TrafficSchema, in, false)))
	out.Into(sink(out.Schema()))
	b.Compile()
	if !checkpoints {
		return b.Run()
	}
	runErr, chkErr := b.RunCheckpointed(snapshot.NewChain(snapshot.NewMemory()),
		exec.CheckpointPolicy{Interval: 20 * time.Millisecond, FullEvery: 4, Retain: 2})
	if runErr != nil {
		return runErr
	}
	return chkErr
}

func plain(s stream.Schema) exec.Operator { return discard(s) }

func withGuards(n int) func(stream.Schema) exec.Operator {
	return func(s stream.Schema) exec.Operator { return &guardSink{Collector: discard(s), n: n} }
}

var rungs = []rung{
	{"source-sink", "", func(in *input) error { return runLocal(in, func(s plan.Stream) plan.Stream { return s }, plain, false) }},
	{"select", "source-sink", func(in *input) error { return runLocal(in, hot, plain, false) }},
	{"guard-8", "select", func(in *input) error { return runLocal(in, hot, withGuards(8), false) }},
	{"guard-128", "guard-8", func(in *input) error { return runLocal(in, hot, withGuards(128), false) }},
	{"guard-1024", "guard-128", func(in *input) error { return runLocal(in, hot, withGuards(1024), false) }},
	{"kernel", "select", func(in *input) error { return runLocal(in, keep, plain, false) }},
	{"aggregate", "kernel", func(in *input) error {
		return runLocal(in, func(s plan.Stream) plan.Stream { return avg(keep(s)) }, plain, false)
	}},
	{"exchange", "aggregate", func(in *input) error { return runLocal(in, exchange, plain, false) }},
	{"barrier", "exchange", func(in *input) error { return runLocal(in, exchange, plain, true) }},
	{"remote", "barrier", func(in *input) error {
		p, err := startPair(pairOpts{schema: gen.TrafficSchema, in: in, follow: exchange,
			sink: discard(exchangeSchema())}, newStores(),
			exec.CheckpointPolicy{Interval: 20 * time.Millisecond, FullEvery: 4, Retain: 2})
		if err != nil {
			return err
		}
		return p.wait()
	}},
}

func exchangeSchema() stream.Schema {
	return (&op.Aggregate{In: stream.MustSchema(gen.TrafficSchema.Field(0), gen.TrafficSchema.Field(2), gen.TrafficSchema.Field(3)),
		Kind: core.AggAvg, TsAttr: 1, ValAttr: 2, GroupBy: []int{0}, Window: window.Tumbling(gbWindowUS),
		ValueName: "avg_speed"}).OutSchemas()[0]
}

// runLadder measures every rung at GOMAXPROCS=1 and at NumCPU, three runs
// each, and records the medians as deltas over each rung's parent.
func runLadder(res *result, traffic *input) error {
	in := &input{tuples: traffic.tuples[:min(ladderTuples, len(traffic.tuples))]}
	for _, m := range traffic.puncts {
		if m.after <= len(in.tuples) {
			in.puncts = append(in.puncts, m)
		}
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	n := float64(len(in.tuples))
	for _, procs := range []struct {
		n      int
		suffix string
	}{{1, "p1"}, {runtime.NumCPU(), "pn"}} {
		runtime.GOMAXPROCS(procs.n)
		wall, cpu := map[string]float64{}, map[string]float64{}
		for _, r := range rungs {
			var ws, cs dist
			for rep := 0; rep < 3; rep++ {
				runtime.GC()
				sp := startSpan()
				if err := r.run(in); err != nil {
					return fmt.Errorf("rung %s: %w", r.name, err)
				}
				w, c, _ := sp.end()
				ws = append(ws, float64(w.Nanoseconds())/n)
				cs = append(cs, float64(c.Nanoseconds())/n)
			}
			wall[r.name], cpu[r.name] = ws.median(), cs.median()
			res.setLayer(fmt.Sprintf("ladder.%s.ns_per_tuple.%s", r.name, procs.suffix), "ns", wall[r.name]-wall[r.parent])
			res.setLayer(fmt.Sprintf("ladder.%s.cpu_ns_per_tuple.%s", r.name, procs.suffix), "ns", cpu[r.name]-cpu[r.parent])
		}
	}
	return nil
}

// guardShapeTraffic is a per-key guard over the traffic schema: segment =
// k within a window (groupby-max sends no feedback; this is the shape a
// per-key consumer would).
func guardShapeTraffic(in *input) guardShape {
	return guardShape{arity: 4, probes: in.tuples[:4096], pattern: func(i int) punct.Pattern {
		return punct.NewPattern(punct.Eq(stream.Int(int64(gbKeys+i))),
			punct.Wild, punct.Range(stream.TimeMicros(0), stream.TimeMicros(gbWindowUS-1)), punct.Wild)
	}}
}

// guardShapeSpeedmap is the join's per-(segment, window) feedback as the
// probe side sees it: segment = s over one period.
func guardShapeSpeedmap(probes *input) guardShape {
	return guardShape{arity: 3, probes: probes.tuples[:4096], pattern: func(i int) punct.Pattern {
		return punct.NewPattern(punct.Eq(stream.Int(int64(smSegments+i))),
			punct.Range(stream.TimeMicros(smStartUS), stream.TimeMicros(smStartUS+smPeriodUS-1)), punct.Wild)
	}}
}

// guardShapeZoom is the display's In-set zoom over one window; guard i
// covers a window far past the probes. The sets hold 64 keys, not the
// workload's 512: installing 1024 guards of 512-key sets takes seconds
// (Install compares every pair), while the workload keeps two or three
// live.
func guardShapeZoom(in *ingInput, seed int64) guardShape {
	return guardShape{arity: 3, probes: in.slice(0, 4096, nil), pattern: func(i int) punct.Pattern {
		return zoomPattern(seed, int64(1_000_000+i), 64)
	}}
}
