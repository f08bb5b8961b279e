package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/window"
)

// speedmap-feedback: the Figure 1(b) plan at 512 segments over 5⅓ minutes of
// stream time from 6:30 am (rush onset), 20 s periods. With the inputs in
// lockstep the join's per-(segment, window) feedback keeps about one
// period's worth of guards live per table, and guard install compares every
// pair: at 128 segments feedback still pays for itself on a 2-core host, at
// 512 a feedback pass takes longer than a feedback-off pass although it
// skips half its input. The workload keeps that defect visible rather than
// sizing it away. Stage costs are fixed work-unit counts (never calibrated
// per process).
const (
	smSegments  = 512
	smPeriodUS  = 20_000_000
	smStartUS   = int64(6*3600+1800) * 1_000_000
	smPeriods   = 16
	smCleanCost = 800
	smAggCost   = 800
	smCongested = 45.0 // mph: below it the join wants probe data
)

// genSpeedmap builds the probe and sensor inputs from the seed: per period
// and segment a Poisson number of probe readings (denser when congested, 5%
// corrupted) and one fixed-sensor report, each input punctuated at the end
// of every period.
func genSpeedmap(seed int64) (probes, sensors *input) {
	r := rand.New(rand.NewSource(seed))
	probes, sensors = &input{}, &input{}
	for p := 0; p < smPeriods; p++ {
		now := smStartUS + int64(p)*smPeriodUS
		minute := int((now / 60_000_000) % (24 * 60))
		for seg := int64(0); seg < smSegments; seg++ {
			truth := archive.DiurnalSpeed(minute, seg)
			n := poisson(r, 6*60/math.Max(truth, 10))
			for v := 0; v < n; v++ {
				speed := truth + r.NormFloat64()*4
				if r.Float64() < 0.05 {
					speed = r.Float64() * 200
				}
				probes.tuples = append(probes.tuples, stream.NewTuple(stream.Int(seg),
					stream.TimeMicros(now+r.Int63n(smPeriodUS)), stream.Float(math.Max(speed, 0))))
			}
			sensors.tuples = append(sensors.tuples, stream.NewTuple(stream.Int(seg), stream.Int(0),
				stream.TimeMicros(now), stream.Float(math.Max(truth+r.NormFloat64()*2, 0))))
		}
		next := stream.TimeMicros(now + smPeriodUS)
		probes.puncts = append(probes.puncts, punctMark{after: len(probes.tuples), e: punct.NewEmbedded(punct.OnAttr(3, 1, punct.Lt(next)))})
		sensors.puncts = append(sensors.puncts, punctMark{after: len(sensors.tuples), e: punct.NewEmbedded(punct.OnAttr(4, 2, punct.Lt(next)))})
	}
	return probes, sensors
}

func poisson(r *rand.Rand, mean float64) int {
	l, k, p := math.Exp(-mean), 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// lockstep releases the two inputs in stream-time lockstep: neither source
// starts period p before the other has finished period p-1. How far the
// sensors run ahead sets how many guards are live, so it must not depend
// on scheduling.
type lockstep struct {
	mu      sync.Mutex
	cond    *sync.Cond
	done    [2]int // periods each side has finished
	aborted bool
}

func newLockstep() *lockstep {
	l := &lockstep{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// stallLimit bounds a wait for the other side; only a failed plan stalls.
const stallLimit = 30 * time.Second

func (l *lockstep) wait(side, period int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done[1-side] >= period {
		return nil
	}
	deadline := time.Now().Add(stallLimit)
	t := time.AfterFunc(stallLimit, func() { l.mu.Lock(); l.cond.Broadcast(); l.mu.Unlock() })
	defer t.Stop()
	for l.done[1-side] < period {
		if l.aborted {
			return fmt.Errorf("lockstep: aborted")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lockstep: side %d stalled waiting for period %d", side, period)
		}
		l.cond.Wait()
	}
	return nil
}

// abort releases every waiter; used when a plan is killed.
func (l *lockstep) abort() {
	l.mu.Lock()
	l.aborted = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

func (l *lockstep) advance(side, done int) {
	l.mu.Lock()
	l.done[side] = done
	l.cond.Broadcast()
	l.mu.Unlock()
}

// steppedSource gates a replay source on the lockstep: one period (the
// tuples up to and including its punctuation) per release.
type steppedSource struct {
	*replaySource
	ls   *lockstep
	side int
}

func (s *steppedSource) Next(ctx exec.Context) (bool, error) {
	if s.pos < s.in.len() || s.pi < len(s.in.puncts) {
		if err := s.ls.wait(s.side, s.pi); err != nil {
			return false, err
		}
	}
	pi := s.pi
	more, err := s.replaySource.Next(ctx)
	if s.pi != pi || !more {
		done := s.pi
		if !more {
			done = math.MaxInt
		}
		s.ls.advance(s.side, done)
	}
	return more, err
}

// smPlan is one built Figure 1(b) plan.
type smPlan struct {
	g               *exec.Graph
	ls              *lockstep
	probes, sensors *replaySource
	clean           *op.Select
	agg             *op.Aggregate
	join            *op.Join
	sink            *rowSink
	joinNode        exec.NodeID
	asserted        map[[2]int64]bool
	sent            atomic.Int64
}

// buildSpeedmap assembles probes → clean → aggregate → outer join ←
// sensor key, with the join's adaptive feedback when feedback is on.
func buildSpeedmap(probesIn, sensorsIn *input, feedback bool, clock *feedbackClock, tel *telemetry.Telemetry, rows []row) *smPlan {
	mode := op.FeedbackIgnore
	if feedback {
		mode = op.FeedbackExploit
	}
	ls := newLockstep()
	p := &smPlan{asserted: map[[2]int64]bool{}, ls: ls}
	p.probes = newReplaySource("probe-vehicles", gen.ProbeSchema, probesIn, feedback)
	p.sensors = newReplaySource("traffic-sensors", gen.TrafficSchema, sensorsIn, false)
	p.probes.batch, p.sensors.batch = 64, 64
	if clock != nil {
		p.probes.onFeedback = clock.markRecv
	}
	p.clean = &op.Select{OpName: "clean", Schema: gen.ProbeSchema,
		Cond: func(t stream.Tuple) bool {
			v := t.At(2).AsFloat()
			return v >= 0 && v <= 100
		},
		Cost: smCleanCost, Mode: mode, Propagate: feedback}
	p.agg = &op.Aggregate{OpName: "aggregate", In: gen.ProbeSchema, Kind: core.AggAvg,
		TsAttr: 1, ValAttr: 2, GroupBy: []int{0}, Window: window.Tumbling(smPeriodUS),
		ValueName: "probe_speed", Cost: smAggCost, Mode: mode, Propagate: feedback}
	key := &op.Project{OpName: "sensor-key", In: gen.TrafficSchema, Keep: []string{"segment", "ts", "speed"}}
	p.join = &op.Join{OpName: "speedmap-join",
		Left: key.OutSchemas()[0], Right: p.agg.OutSchemas()[0],
		LeftKeys: []int{0, 1}, RightKeys: []int{0, 1}, LeftTs: 1, RightTs: 1,
		Residual:  func(l, _ stream.Tuple) bool { return l.At(2).AsFloat() < smCongested },
		LeftOuter: true, Mode: mode}
	if feedback {
		var seq int64
		p.join.Adaptive = func(input int, t stream.Tuple, send func(int, core.Feedback)) {
			if input != 0 || t.At(2).IsNull() || t.At(2).AsFloat() < smCongested {
				return
			}
			wstart := (t.At(1).Micros() / smPeriodUS) * smPeriodUS
			seq++
			p.asserted[[2]int64{t.At(0).I, wstart}] = true
			if clock != nil {
				clock.markSent(seq)
			}
			p.sent.Add(1)
			send(1, core.Feedback{Intent: core.Assumed, Origin: feedbackOrigin, Seq: seq,
				Pattern: punct.NewPattern(punct.Eq(t.At(0)), punct.Eq(stream.TimeMicros(wstart)), punct.Wild)})
		}
	}
	p.sink = newRowSink("map", p.join.OutSchemas()[0], rows)

	g := exec.NewGraph()
	g.SetQueueOptions(queue.Options{PageSize: 8, Depth: 2, FlushOnPunct: true})
	pn := g.AddSource(&steppedSource{replaySource: p.probes, ls: ls, side: 0})
	cn := g.Add(p.clean, exec.From(pn))
	an := g.Add(p.agg, exec.From(cn))
	sn := g.AddSource(&steppedSource{replaySource: p.sensors, ls: ls, side: 1})
	kn := g.Add(key, exec.From(sn))
	p.joinNode = g.Add(p.join, exec.From(kn), exec.From(an))
	g.Add(p.sink, exec.From(p.joinNode))
	if tel != nil {
		g.SetTelemetry(tel)
	}
	p.g = g
	return p
}

// setupFrom is the set-up time of a plan: from the start of its build to the
// first Next of either source.
func (p *smPlan) setupFrom(sp span) time.Duration {
	first := p.probes.firstNext.Load()
	if s := p.sensors.firstNext.Load(); first == 0 || (s != 0 && s < first) {
		first = s
	}
	return time.Duration(first - sp.wall0.Sub(clockBase).Nanoseconds())
}

// smRef is the reference: the feedback-off map rows as a multiset.
type smRef struct {
	rows   map[string]int
	tuples map[string]stream.Tuple
}

func newSMRef(rows []row) *smRef {
	ref := &smRef{rows: map[string]int{}, tuples: map[string]stream.Tuple{}}
	for _, rw := range rows {
		k := rowKey(rw.t)
		ref.rows[k]++
		ref.tuples[k] = rw.t
	}
	return ref
}

func rowKey(t stream.Tuple) string { return t.String() }

// check compares a feedback pass with the reference outside the asserted
// (segment, window) subsets: there every reference row must be delivered,
// and no delivered row may be absent from the reference anywhere.
func (ref *smRef) check(res *result, p *smPlan) {
	got := map[string]int{}
	for _, rw := range p.sink.rows {
		k := rowKey(rw.t)
		got[k]++
		res.attempted++
		if got[k] > ref.rows[k] {
			res.fail("speedmap-feedback: invented row %v", rw.t)
		}
	}
	for k, n := range ref.rows {
		if got[k] >= n {
			continue
		}
		t := ref.tuples[k]
		if p.asserted[[2]int64{t.At(0).I, t.At(1).Micros()}] {
			continue // inside a subset the join asserted it would not need
		}
		res.attempted++
		res.fail("speedmap-feedback: missing row %s", k)
	}
}

// latencies appends each map row's latency in ms: from the later of the
// two punctuations that closed its period to its arrival at the sink.
func (p *smPlan) latencies(d dist) dist {
	for _, rw := range p.sink.rows {
		period := int((rw.t.At(1).Micros() - smStartUS) / smPeriodUS)
		if period < 0 || period >= smPeriods {
			continue
		}
		closed := max(p.probes.punctAt[period], p.sensors.punctAt[period])
		d = append(d, float64(rw.at-closed)/1e6)
	}
	return d
}

// saved returns the tuples guards suppressed at the source, cleaner,
// aggregate and join, and the tuples offered to those stages.
func (p *smPlan) saved() (suppressed, offered int64) {
	cin, _, csupp := p.clean.Stats()
	as := p.agg.Stats()
	js := p.join.Stats()
	var joinIn int64
	for _, e := range p.g.Edges() {
		if e.Consumer == p.join.Name() {
			joinIn += e.Stats.Tuples
		}
	}
	suppressed = p.probes.skipped.Load() + csupp + as.InSuppressed + js.SuppressedIn
	offered = p.probes.emitted + p.probes.skipped.Load() + cin + as.In + joinIn
	return suppressed, offered
}

// runSpeedmap is the speedmap-feedback workload.
func runSpeedmap(cfg config) (*result, error) {
	probesIn, sensorsIn := genSpeedmap(cfg.seed)
	tuples := int64(len(probesIn.tuples) + len(sensorsIn.tuples))
	res := newResult()

	// Reference: the same plan with feedback off, outside any timed span.
	// Its wall and CPU time are printed beside the feedback passes', so each
	// run shows whether feedback currently pays for itself.
	off := buildSpeedmap(probesIn, sensorsIn, false, nil, nil, nil)
	offSpan := startSpan()
	if err := off.g.Run(); err != nil {
		return nil, fmt.Errorf("feedback-off reference: %w", err)
	}
	offWall, offCPU, _ := offSpan.end()
	ref := newSMRef(off.sink.rows)
	settle()

	// Set-up is measured on dry plans: build, start, and the first source
	// Next; then kill. A pass's own set-up would see the previous pass's
	// garbage, and a run holds too few passes for a steady median.
	var setups dist
	for i := 0; i < 31; i++ {
		clock, rows := newFeedbackClock(smSegments*smPeriods), make([]row, 0, smSegments*smPeriods)
		runtime.GC()
		sp := startSpan()
		p := buildSpeedmap(probesIn, sensorsIn, true, clock, nil, rows)
		done := make(chan error, 1)
		go func() { done <- p.g.Run() }()
		if err := awaitStart(func() bool { return p.probes.started() || p.sensors.started() }, done); err != nil {
			p.g.Kill()
			p.ls.abort()
			<-done
			return nil, fmt.Errorf("dry set-up: %w", err)
		}
		setups = append(setups, p.setupFrom(sp).Seconds())
		p.g.Kill()
		p.ls.abort()
		if err := <-done; err != nil && !errors.Is(err, exec.ErrKilled) {
			return nil, fmt.Errorf("dry set-up: %w", err)
		}
	}

	var savedFrac, delays dist
	phase := func(budget time.Duration, tr *tracer) ([]passStats, dist, float64) {
		var lat dist
		passes, peak := closedLoop(res, "speedmap-feedback", budget, tuples, func() func(span) (time.Duration, time.Duration, func(), error) {
			var tel *telemetry.Telemetry
			if tr != nil {
				tel = telemetry.New()
			}
			clock, rows := newFeedbackClock(smSegments*smPeriods), make([]row, 0, smSegments*smPeriods)
			return func(sp span) (time.Duration, time.Duration, func(), error) {
				p := buildSpeedmap(probesIn, sensorsIn, true, clock, tel, rows)
				stopDepth := tr.sampleDepth(p.probes.started, p.g)
				wall, err := timedRun(p.g.Run)
				stopDepth()
				return p.setupFrom(sp), wall, func() {
					ref.check(res, p)
					lat = p.latencies(lat)
					supp, offered := p.saved()
					savedFrac = append(savedFrac, float64(supp)/float64(offered))
					d, _ := clock.delays(0, math.MaxInt64)
					delays = append(delays, d...)
					if tr != nil {
						tr.tuples += tuples
						tr.feedbackSent += p.sent.Load()
						_, _, csupp := p.clean.Stats()
						tr.selectSupp += csupp
						tr.aggSupp += p.agg.Stats().InSuppressed
						tr.joinSupp += p.join.Stats().SuppressedIn
						tr.addScrape(tel)
						tr.addEdges(p.g.Edges())
					}
				}, err
			}
		})
		return passes, lat, peak
	}
	finishE2E := func(passes []passStats, lat dist, peak float64) {
		closedLoopE2E(res, passes, lat, peak)
		res.setE2E("setup_s", "s", setups)
		res.e2e["work_saved_frac"] = metric{Value: savedFrac.median(), Unit: "ratio", Samples: len(savedFrac)}
		res.e2e["feedback_delay_p99_ms"] = metric{Value: delays.quantile(0.99), Unit: "ms", Samples: len(delays)}
	}
	budget := time.Duration(cfg.seconds) * time.Second
	report := func(passes []passStats) {
		var walls, cpus dist
		for _, p := range passes {
			walls = append(walls, p.wall.Seconds())
			cpus = append(cpus, p.cpu.Seconds())
		}
		fmt.Printf("# speedmap-feedback: %d segments, %d periods, %d input tuples, %d reference rows; feedback passes: %d, median %.3f s wall %.3f s CPU; feedback-off reference pass: %.3f s wall %.3f s CPU\n",
			smSegments, smPeriods, tuples, len(off.sink.rows), len(passes), walls.median(), cpus.median(), offWall.Seconds(), offCPU.Seconds())
	}
	if !cfg.trace {
		passes, lat, peak := phase(budget, nil)
		if len(passes) == 0 {
			return nil, fmt.Errorf("no pass completed")
		}
		finishE2E(passes, lat, peak)
		report(passes)
		return res, nil
	}
	tr := newTracer(res)
	passes, lat, peak := phase(budget/3, nil)
	if len(passes) == 0 {
		return nil, fmt.Errorf("no pass completed")
	}
	finishE2E(passes, lat, peak)
	report(passes)
	untraced := res.e2e
	res.e2e = map[string]metric{}
	savedFrac, delays = nil, nil
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
	finishE2E(passes, lat, peak)
	tr.overhead(untraced, res.e2e)
	res.e2e = untraced
	return res, tr.finish(guardShapeSpeedmap(probesIn), genTraffic(cfg.seed, ladderTuples))
}
