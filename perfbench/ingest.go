package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/remote"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/window"
)

// ingest-remote: Zipf keys over 50k values, 100ms tumbling windows of event
// time (event time = due time ± disorder), bounded disorder of up to 64
// positions, a progress punctuation every 256 tuples. The three offered
// rates are fixed absolute numbers chosen from a 2-core host's capacity
// (350k to 480k tuples/s through the remote pair, as host load varies):
// two far below the knee and one well above it.
const (
	ingKeys       = 50_000
	ingWindowUS   = 100_000
	ingDisorder   = 64
	ingPunctEvery = 256
	ingParts      = 2
	ingHidden     = 512  // keys per zoom In-set
	ingHiddenFrom = 4096 // hidden keys are drawn from the hottest ones
	// ingLatencyLimitMS is the p99 latency a rate must meet to count as
	// sustainable.
	ingLatencyLimitMS = 100
	ingCheckpointEach = 500 * time.Millisecond
	ingScrapeEach     = time.Second
)

// ingRates are the offered rates, in tuples/s, in the order they run.
var ingRates = []float64{60_000, 120_000, 720_000}

// ingestSchema is the producer's record: (key, ts, val).
var ingestSchema = stream.MustSchema(
	stream.F("key", stream.KindInt),
	stream.F("ts", stream.KindTime),
	stream.F("val", stream.KindFloat),
)

// ingInput is the generated open-loop input: the disordered punctuated
// stream as compact records, each position's due time (ns after the
// schedule starts), and the index of the first tuple of each rate step.
type ingInput struct {
	*input
	recs      []ingRec
	due       []int64
	stepStart []int
	stepNS    int64
}

// ingRec is one compact producer record, materialized into a tuple only
// when the producer emits it.
type ingRec struct {
	ts, key int64
	val     float64
}

// ingChunk is how many tuples the disorder is applied to at a time; the
// displacement bound is far smaller, so chunking changes nothing but the
// memory generation needs.
const ingChunk = 1 << 16

// genIngest builds the input for steps of stepNS each at ingRates.
func genIngest(seed int64, stepNS int64) *ingInput {
	r := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(r, 1.1, 2, ingKeys-1)
	in := &ingInput{input: &input{}, stepNS: stepNS}
	var chunk []queue.Item
	flush := func() {
		for _, it := range (gen.Disorder{Bound: ingDisorder, TsAttr: 1, Seed: seed + int64(len(in.recs))}).Apply(chunk) {
			switch it.Kind {
			case queue.ItemTuple:
				v := it.Tuple.Values
				in.recs = append(in.recs, ingRec{key: v[0].I, ts: v[1].Micros(), val: v[2].AsFloat()})
			case queue.ItemPunct:
				in.puncts = append(in.puncts, punctMark{after: len(in.recs), e: *it.Punct})
			}
		}
		chunk = chunk[:0]
	}
	var t int64
	for s, rate := range ingRates {
		in.stepStart = append(in.stepStart, len(in.due))
		gap := 1e9 / rate
		base := int64(s) * stepNS
		for i := 0; i < int(float64(stepNS)/gap); i++ {
			t = base + int64(float64(i)*gap)
			in.due = append(in.due, t)
			chunk = append(chunk, queue.TupleItem(stream.NewTuple(
				stream.Int(int64(zipf.Uint64())), stream.TimeMicros(t/1000), stream.Float(r.Float64()*100))))
			if len(in.due)%ingPunctEvery == 0 {
				chunk = append(chunk, queue.PunctItem(punct.NewEmbedded(punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(t/1000))))))
				if len(chunk) >= ingChunk {
					flush()
				}
			}
		}
	}
	chunk = append(chunk, queue.PunctItem(punct.NewEmbedded(punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(t/1000))))))
	flush()
	in.n = len(in.recs)
	in.build = func(lo, hi int, buf []stream.Tuple) []stream.Tuple {
		vals := make([]stream.Value, 3*(hi-lo))
		for i, rec := range in.recs[lo:hi] {
			v := vals[3*i : 3*i+3 : 3*i+3]
			v[0], v[1], v[2] = stream.Int(rec.key), stream.TimeMicros(rec.ts), stream.Float(rec.val)
			buf = append(buf, stream.Tuple{Values: v})
		}
		return buf
	}
	return in
}

// hiddenKeys is the zoom In-set for a window: keys the display does not
// show, drawn deterministically from the seed and the window.
func hiddenKeys(seed int64, w int64, n int) []stream.Value {
	r := rand.New(rand.NewSource(seed*1_000_003 + w))
	pick := r.Perm(ingHiddenFrom)[:n]
	sort.Ints(pick)
	vals := make([]stream.Value, len(pick))
	for i, k := range pick {
		vals[i] = stream.Int(int64(k))
	}
	return vals
}

// zoomPattern is the assumed feedback a display sends for window w: the
// hidden keys of w over w's event-time range.
func zoomPattern(seed, w int64, n int) punct.Pattern {
	return punct.NewPattern(
		punct.OneOf(hiddenKeys(seed, w, n)...),
		punct.Range(stream.TimeMicros(w*ingWindowUS), stream.TimeMicros((w+1)*ingWindowUS-1)),
		punct.Wild)
}

// zoomLead is how many windows ahead of stream progress the display zooms.
const zoomLead = 2

// feedbackClock records, per feedback sequence number, when the consumer
// sent it and when the producer first received it.
type feedbackClock struct {
	sent, recv []atomic.Int64
}

func newFeedbackClock(n int) *feedbackClock {
	return &feedbackClock{sent: make([]atomic.Int64, n+1), recv: make([]atomic.Int64, n+1)}
}

func (c *feedbackClock) markSent(seq int64) {
	if seq > 0 && int(seq) < len(c.sent) {
		c.sent[seq].Store(nowNS())
	}
}

func (c *feedbackClock) markRecv(f core.Feedback) {
	if f.Origin != feedbackOrigin || f.Seq <= 0 || int(f.Seq) >= len(c.recv) {
		return
	}
	c.recv[f.Seq].CompareAndSwap(0, nowNS())
}

// delays returns send→receive delays in ms of the feedback sent in [lo,
// hi) (nowNS clock) and how many were sent in all.
func (c *feedbackClock) delays(lo, hi int64) (d dist, sent int64) {
	for i := range c.sent {
		s, r := c.sent[i].Load(), c.recv[i].Load()
		if s == 0 {
			continue
		}
		if s < lo || s >= hi {
			sent++
			continue
		}
		sent++
		if r != 0 {
			d = append(d, float64(r-s)/1e6)
		}
	}
	return d, sent
}

// feedbackOrigin tags the benchmark's own feedback so the producer can
// match arrivals to sends.
const feedbackOrigin = "perfbench"

// zoomSink is the display: it records results and, as stream progress
// enters window w, sends the zoom for window w+zoomLead. It is a
// checkpointed operator so results are counted exactly once across a
// restore: its state is the number of rows delivered and the newest window
// zoomed.
type zoomSink struct {
	exec.Base
	schema   stream.Schema
	seed     int64
	clock    *feedbackClock
	zoomed   int64 // newest window a zoom was sent for
	base     int   // rows delivered before the restored cut
	maxClose atomic.Int64

	mu    sync.Mutex // the harness reads cells and first while the plan runs
	cells []cellRow  // results, compactly: a run delivers hundreds of thousands
	first int64      // arrival of the first result (0 = none yet)
}

// newZoomSink records into cells[:0]; callers allocate the buffer outside
// the timed span, so the span's allocation and heap measure the engine, not
// the harness.
func newZoomSink(schema stream.Schema, seed int64, clock *feedbackClock, cells []cellRow) *zoomSink {
	return &zoomSink{schema: schema, seed: seed, clock: clock, zoomed: zoomLead - 1, cells: cells[:0]}
}

// cellRow is one delivered (key, window) average and its arrival time.
type cellRow struct {
	key, wstart int64
	avg         float64
	at          int64
}

func (z *zoomSink) Name() string                { return "display" }
func (z *zoomSink) InSchemas() []stream.Schema  { return []stream.Schema{z.schema} }
func (z *zoomSink) OutSchemas() []stream.Schema { return nil }

func (z *zoomSink) add(t stream.Tuple, at int64) {
	if z.first == 0 {
		z.first = at
	}
	z.cells = append(z.cells, cellRow{key: t.Values[0].I, wstart: t.Values[1].Micros(), avg: t.Values[2].AsFloat(), at: at})
}

func (z *zoomSink) ProcessTuple(_ int, t stream.Tuple, _ exec.Context) error {
	at := nowNS()
	z.mu.Lock()
	z.add(t, at)
	z.mu.Unlock()
	return nil
}

func (z *zoomSink) ProcessTupleBatch(_ int, items []queue.Item, _ exec.Context) error {
	at := nowNS()
	z.mu.Lock()
	for i := range items {
		z.add(items[i].Tuple, at)
	}
	z.mu.Unlock()
	return nil
}

// snapshotCells returns the results delivered so far.
func (z *zoomSink) snapshotCells() []cellRow {
	z.mu.Lock()
	defer z.mu.Unlock()
	return append([]cellRow(nil), z.cells...)
}

// firstAt returns the arrival of the first result (0 = none yet).
func (z *zoomSink) firstAt() int64 {
	z.mu.Lock()
	defer z.mu.Unlock()
	return z.first
}

// ProcessPunct zooms ahead of stream progress.
func (z *zoomSink) ProcessPunct(_ int, e punct.Embedded, ctx exec.Context) error {
	z.zoom(e, ctx)
	return nil
}

func (z *zoomSink) zoom(e punct.Embedded, ctx exec.Context) {
	pr := e.Pattern.Pred(1)
	if pr.Op != punct.LE && pr.Op != punct.LT {
		return
	}
	w := pr.Val.Micros() / ingWindowUS
	z.maxClose.Store(w)
	for z.zoomed < w+zoomLead {
		z.zoomed++
		seq := z.zoomed
		z.clock.markSent(seq)
		ctx.SendFeedback(0, core.Feedback{Intent: core.Assumed, Pattern: zoomPattern(z.seed, seq, ingHidden), Origin: feedbackOrigin, Seq: seq})
	}
}

func (z *zoomSink) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	z.mu.Lock()
	n := z.base + len(z.cells)
	z.mu.Unlock()
	zoomed := z.zoomed
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		enc.PutInt(n)
		enc.PutInt64(zoomed)
		return nil
	}}, nil
}

func (z *zoomSink) SaveState(enc *snapshot.Encoder) error { return snapshot.EncodeCapture(z, enc) }

func (z *zoomSink) LoadState(dec *snapshot.Decoder) error {
	z.base = dec.GetInt()
	z.zoomed = dec.GetInt64()
	return dec.Err()
}

// distPair is one running coordinator/follower pair over loopback TCP (the
// data edge) and an in-process pipe (the control connection).
type distPair struct {
	coordB, followB *plan.Builder
	src             *replaySource
	rsrc            *remote.Source
	dc              *exec.DistCoordinator
	df              *exec.DistFollower
	ctrlA, ctrlB    net.Conn
	data            []net.Conn
	coordErr        chan error
	followErr       chan error
	chkErr          atomic.Value
}

// stores is the durable side of a pair: what survives a kill.
type stores struct {
	coordBackend *snapshot.Memory
	followChain  *snapshot.Chain
}

func newStores() *stores {
	return &stores{coordBackend: snapshot.NewMemory(), followChain: snapshot.NewChain(snapshot.NewMemory())}
}

// pairOpts configures one pair: the producer replays in (paced by due when
// set) and exploits any feedback it receives; the follower runs the compiled
// follow over the remote stream into sink.
type pairOpts struct {
	schema     stream.Schema
	in         *input
	due        []int64
	onFeedback func(core.Feedback)
	tels       [2]*telemetry.Telemetry // coordinator, follower; nil = off
	follow     func(plan.Stream) plan.Stream
	sink       exec.Operator
}

// startPair builds both subplans, connects them, restores the newest
// committed cut from st (a cold start on empty stores), and starts both
// runs under distributed checkpoints.
func startPair(o pairOpts, st *stores, policy exec.CheckpointPolicy) (*distPair, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		l.Close()
		accepted <- c
	}()
	out, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		l.Close()
		<-accepted
		return nil, err
	}
	inConn := <-accepted
	if inConn == nil {
		out.Close()
		return nil, errors.New("accept failed")
	}
	p := &distPair{data: []net.Conn{out, inConn}, coordErr: make(chan error, 1), followErr: make(chan error, 1)}
	p.ctrlA, p.ctrlB = net.Pipe()

	fb := plan.New()
	p.rsrc = remote.NewSource("from-producer", o.schema, inConn)
	s := fb.Source(p.rsrc)
	if o.follow != nil {
		s = o.follow(s)
	}
	s.Into(o.sink)
	fb.Compile()
	fb.EnableTelemetry(o.tels[1])
	if p.df, err = fb.DistFollow("consumer", st.followChain, p.ctrlB); err != nil {
		p.close()
		return nil, err
	}
	p.df.Retain = 3

	cb := plan.New()
	p.src = newReplaySource("rated-producer", o.schema, o.in, true)
	p.src.onFeedback = o.onFeedback
	p.src.due = o.due
	cb.Source(p.src).IntoRemote("to-consumer", out)
	cb.EnableTelemetry(o.tels[0])
	if p.dc, err = cb.DistCoordinate("producer", snapshot.NewChain(st.coordBackend), snapshot.NewDistLog(st.coordBackend)); err != nil {
		p.close()
		return nil, err
	}
	p.dc.AckTimeout = 10 * time.Second
	if _, err := p.dc.RestoreCommitted(); err != nil {
		p.close()
		return nil, fmt.Errorf("restore committed: %w", err)
	}
	hs := make(chan error, 1)
	go func() {
		_, err := p.df.Handshake()
		hs <- err
	}()
	if _, err := p.dc.AddFollower(p.ctrlA); err != nil {
		p.close()
		<-hs
		return nil, fmt.Errorf("add follower: %w", err)
	}
	if err := <-hs; err != nil {
		p.close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	p.coordB, p.followB = cb, fb
	go func() {
		runErr, chkErr := p.dc.RunCheckpointed(policy)
		if chkErr != nil {
			p.chkErr.Store(chkErr)
		}
		p.coordErr <- runErr
	}()
	go func() { p.followErr <- p.df.Run() }()
	return p, nil
}

// wait returns once both subplans have ended, with the first real error
// (a deliberate kill is not one).
func (p *distPair) wait() error {
	err1, err2 := <-p.coordErr, <-p.followErr
	p.close()
	for _, err := range []error{err1, err2} {
		if err != nil && !errors.Is(err, exec.ErrKilled) {
			return err
		}
	}
	return nil
}

// kill stops both subplans mid-stream, as a crash would.
func (p *distPair) kill() error {
	p.coordB.Graph().Kill()
	p.followB.Graph().Kill()
	return p.wait()
}

func (p *distPair) close() {
	p.ctrlA.Close()
	p.ctrlB.Close()
	for _, c := range p.data {
		c.Close()
	}
}

// ingRef is the plain-Go reference: AVG(val) per (key, window) over the
// whole input, in the order each partition sees it.
type ingRef struct {
	sum    map[int64]float64
	cnt    map[int64]int64
	hidden map[int64]bool // (key, window) cells inside an asserted zoom
	closer []int
}

func cell(key, w int64) int64 { return w*ingKeys + key }

func newIngRef(in *ingInput, seed int64) *ingRef {
	ref := &ingRef{sum: map[int64]float64{}, cnt: map[int64]int64{}, hidden: map[int64]bool{}}
	maxW := int64(0)
	for _, rec := range in.recs {
		w := rec.ts / ingWindowUS
		c := cell(rec.key, w)
		ref.sum[c] += rec.val
		ref.cnt[c]++
		maxW = max(maxW, w)
	}
	for w := int64(zoomLead); w <= maxW; w++ {
		for _, k := range hiddenKeys(seed, w, ingHidden) {
			ref.hidden[cell(k.I, w)] = true
		}
	}
	ref.closer = closers(in.input, 1, ingWindowUS, int(maxW)+1)
	return ref
}

// check compares the delivered rows with the reference outside the zoomed
// subsets (Definition 1: exploitation may remove only tuples inside the
// feedback's subset and invents none); every row and every reference cell
// outside a zoom is one attempted operation.
func (ref *ingRef) check(res *result, rows []cellRow) {
	seen := map[int64]bool{}
	for _, rw := range rows {
		ws := rw.wstart
		c := cell(rw.key, ws/ingWindowUS)
		res.attempted++
		switch {
		case ref.cnt[c] == 0 || ws%ingWindowUS != 0:
			res.fail("ingest-remote: invented row %+v", rw)
		case seen[c]:
			res.fail("ingest-remote: duplicate row %+v", rw)
		case !ref.hidden[c] && !closeTo(rw.avg, ref.sum[c]/float64(ref.cnt[c])):
			res.fail("ingest-remote: row %+v, want avg %v", rw, ref.sum[c]/float64(ref.cnt[c]))
		}
		seen[c] = true
	}
	for c := range ref.cnt {
		if !ref.hidden[c] && !seen[c] {
			res.attempted++
			res.fail("ingest-remote: missing row key=%d window=%d", c%ingKeys, c/ingKeys)
		}
	}
}

// ingestPair starts the workload's pair: the rated producer over the wire
// into Parallel(2) AVG GROUP BY key and the zoom display. The aggregates
// are returned for their stats. The display records into cells[:0].
func ingestPair(in *ingInput, paced bool, seed int64, clock *feedbackClock, tels [2]*telemetry.Telemetry,
	st *stores, policy exec.CheckpointPolicy, cells []cellRow) (*distPair, *zoomSink, []*op.Aggregate, error) {
	var aggs []*op.Aggregate
	follow := func(s plan.Stream) plan.Stream {
		return s.Parallel("part", ingParts, []string{"key"}, func(ps plan.Stream) plan.Stream {
			a := &op.Aggregate{OpName: "agg", In: ingestSchema, Kind: core.AggAvg, TsAttr: 1, ValAttr: 2,
				GroupBy: []int{0}, Window: window.Tumbling(ingWindowUS), ValueName: "avg_val",
				Mode: op.FeedbackExploit, Propagate: true}
			aggs = append(aggs, a)
			return ps.Through(a)
		})
	}
	outSchema := (&op.Aggregate{In: ingestSchema, Kind: core.AggAvg, TsAttr: 1, ValAttr: 2, GroupBy: []int{0},
		Window: window.Tumbling(ingWindowUS), ValueName: "avg_val"}).OutSchemas()[0]
	sink := newZoomSink(outSchema, seed, clock, cells)
	o := pairOpts{schema: ingestSchema, in: in.input, onFeedback: clock.markRecv, tels: tels, follow: follow, sink: sink}
	if paced {
		o.due = in.due
	}
	p, err := startPair(o, st, policy)
	return p, sink, aggs, err
}

// runIngest is the ingest-remote workload.
func runIngest(cfg config) (*result, error) {
	stepNS := int64(cfg.seconds) * int64(time.Second) / int64(len(ingRates))
	in := genIngest(cfg.seed, stepNS)
	ref := newIngRef(in, cfg.seed)
	res := newResult()
	settle()

	setups := &setupSampler{in: in, seed: cfg.seed}
	if err := setups.batch(ingSetupWarmup, false); err != nil {
		return nil, err
	}
	if err := setups.batch(ingSetupBatch, true); err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(res)
	}
	m, err := ingestMeasure(cfg, in, ref, res, nil, setups)
	if err != nil {
		return nil, err
	}
	res.e2e = m
	fmt.Printf("# ingest-remote dry set-ups: %d, median %.1f µs, IQR %.1f–%.1f µs\n", len(setups.d),
		setups.d.median()*1e6, setups.d.quantile(0.25)*1e6, setups.d.quantile(0.75)*1e6)
	res.setE2E("setup_s", "s", setups.d)
	if tr == nil {
		return res, nil
	}
	if err := tr.startProfiles(); err != nil {
		return nil, err
	}
	traced, err := ingestMeasure(cfg, in, ref, res, tr, nil)
	if stopErr := tr.stopProfiles(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	tr.overhead(res.e2e, traced)
	return res, tr.finish(guardShapeZoom(in, cfg.seed), genTraffic(cfg.seed, ladderTuples))
}

// Set-up is measured on dry pairs (fresh stores, nothing restored): after
// ingSetupWarmup discarded ones, a batch of ingSetupBatch before the
// open-loop schedule and before each capacity flood. A pair's set-up is
// well under a millisecond, mostly goroutine and loopback wake-ups, and on
// a shared host these drift over hundreds of milliseconds; spreading the
// samples over the whole run keeps the median from resting on one moment.
const (
	ingSetupWarmup = 5
	ingSetupBatch  = 5
)

// setupSampler collects dry set-up times, in seconds.
type setupSampler struct {
	in   *ingInput
	seed int64
	d    dist
}

// batch measures n dry set-ups, keeping them when keep is set. A nil
// sampler measures nothing.
func (s *setupSampler) batch(n int, keep bool) error {
	if s == nil {
		return nil
	}
	for i := 0; i < n; i++ {
		setup, err := drySetup(s.in, s.seed)
		if err != nil {
			return fmt.Errorf("dry set-up: %w", err)
		}
		if keep {
			s.d = append(s.d, setup)
		}
	}
	return nil
}

// drySetup builds, connects, hand-shakes and restores a pair on empty
// stores, up to the producer's first Next, then kills it; it returns the
// set-up time in seconds.
func drySetup(in *ingInput, seed int64) (float64, error) {
	clock, tels, st := newFeedbackClock(0), [2]*telemetry.Telemetry{telemetry.New(), telemetry.New()}, newStores()
	runtime.GC()
	sp := startSpan()
	p, _, _, err := ingestPair(in, true, seed, clock, tels, st, exec.CheckpointPolicy{Interval: time.Hour}, nil)
	if err != nil {
		return 0, err
	}
	err = awaitStart(p.src.started, p.coordErr, p.followErr)
	setup := setupOf(sp, p.src).Seconds()
	if killErr := p.kill(); err == nil {
		err = killErr
	}
	return setup, err
}

// ingestMeasure runs the open-loop schedule with its kill and restore, then
// the capacity floods, each after a batch of dry set-ups when setups is set.
func ingestMeasure(cfg config, in *ingInput, ref *ingRef, res *result, tr *tracer, setups *setupSampler) (map[string]metric, error) {
	m, err := ingestOnce(cfg, in, ref, res, tr)
	if err != nil {
		return nil, err
	}
	return m, ingestFloods(cfg, in, res, m, tr, setups)
}

// Capacity floods: ingFloods unpaced replays of the input's first ingFlood
// tuples through a fresh pair, with the workload's telemetry and zooms and
// a checkpoint every ingFloodCheckpoint (short enough that every flood
// holds several epochs; at the open-loop interval whether an epoch landed
// in a flood would decide its speed). Their medians are the workload's
// throughput and CPU per tuple: closed-loop work per second at a stated
// input size, which does not depend on where the knee fell in the
// open-loop run.
const (
	ingFlood           = 150_000
	ingFloods          = 21
	ingFloodCheckpoint = 100 * time.Millisecond
)

// prefix is the input's first n tuples with the punctuation among them.
func (in *ingInput) prefix(n int) *ingInput {
	pin := &input{n: n, build: in.build}
	for _, m := range in.puncts {
		if m.after <= n {
			pin.puncts = append(pin.puncts, m)
		}
	}
	return &ingInput{input: pin, recs: in.recs[:n], due: in.due[:n], stepNS: in.stepNS}
}

func ingestFloods(cfg config, in *ingInput, res *result, m map[string]metric, tr *tracer, setups *setupSampler) error {
	pre := in.prefix(min(ingFlood, len(in.recs)))
	ref := newIngRef(pre, cfg.seed)
	n := float64(len(pre.recs))
	var tps, cpus dist
	for i := 0; i < ingFloods; i++ {
		if err := setups.batch(ingSetupBatch, true); err != nil {
			return err
		}
		clock, tels, st := newFeedbackClock(len(ref.closer)+zoomLead+1), [2]*telemetry.Telemetry{telemetry.New(), telemetry.New()}, newStores()
		cells := make([]cellRow, 0, len(ref.cnt))
		runtime.GC()
		sp := startSpan()
		p, sink, _, err := ingestPair(pre, false, cfg.seed, clock, tels, st,
			exec.CheckpointPolicy{Interval: ingFloodCheckpoint, FullEvery: 4, Retain: 3}, cells)
		if err != nil {
			return fmt.Errorf("capacity flood: %w", err)
		}
		err = p.wait()
		end := nowNS()
		_, cpu, _ := sp.end()
		res.attempted++
		if err != nil {
			res.fail("ingest-remote: capacity flood: %v", err)
			continue
		}
		tps = append(tps, n/(float64(end-p.src.firstNext.Load())/1e9))
		cpus = append(cpus, float64(cpu.Nanoseconds())/n)
		ref.check(res, sink.cells)
		if tr != nil {
			tr.tuples += int64(n)
		}
	}
	if len(tps) == 0 {
		return fmt.Errorf("no capacity flood completed")
	}
	fmt.Printf("# ingest-remote capacity floods of %d tuples: tuples/s %.0f, CPU ns/tuple %.0f\n", len(pre.recs), tps, cpus)
	m["throughput_tps"] = tps.metric("tuples/s")
	m["cpu_ns_per_tuple"] = cpus.metric("ns")
	return nil
}

// ingestOnce runs the open-loop schedule, kills the pair, restores it from
// the last committed epoch and runs the rest of the input; it checks the
// combined results and returns the end-to-end metrics.
func ingestOnce(cfg config, in *ingInput, ref *ingRef, res *result, tr *tracer) (map[string]metric, error) {
	m := map[string]metric{}
	clock := newFeedbackClock(len(ref.closer) + zoomLead + 1)
	st := newStores()
	tels := [2]*telemetry.Telemetry{telemetry.New(), telemetry.New()}
	policy := exec.CheckpointPolicy{Interval: ingCheckpointEach, FullEvery: 4, Retain: 3}
	cells := make([]cellRow, 0, len(ref.cnt))
	hs := startHeapSampler()
	hs.setActive(true)
	sp := startSpan()
	p, sink, aggs, err := ingestPair(in, true, cfg.seed, clock, tels, st, policy, cells)
	if err != nil {
		return nil, err
	}
	if err := awaitStart(p.src.started, p.coordErr, p.followErr); err != nil {
		killErr := p.kill()
		return nil, fmt.Errorf("timed run: %w (kill: %v)", err, killErr)
	}
	// The timed pair's own set-up is printed only; setup_s comes from the
	// dry pairs.
	m["open_loop_setup_s"] = metric{Value: setupOf(sp, p.src).Seconds(), Unit: "s", Samples: 1}
	t0 := p.src.firstNext.Load()
	stopDepth := tr.sampleDepth(func() bool { return true }, p.coordB.Graph(), p.followB.Graph())

	// Once a second, scrape both registries; every 20ms, sample the
	// backlog and the sink's lag.
	var scrapes dist
	var backlog []backlogSample
	end := t0 + int64(len(ingRates))*in.stepNS
	nextScrape := t0 + int64(ingScrapeEach)
	for now := nowNS(); now < end; now = nowNS() {
		time.Sleep(20 * time.Millisecond)
		now = nowNS()
		rel := now - t0
		dueCount := sort.Search(len(in.due), func(i int) bool { return in.due[i] > rel })
		recv, _ := p.rsrc.Stats()
		recv += p.src.skipped.Load()
		lag := int64(0)
		if w := sink.maxClose.Load(); w > 0 && int(w) < len(ref.closer) {
			pm := ref.closer[w]
			if a := in.puncts[pm].after; a > 0 {
				lag = rel - in.due[a-1]
			}
		}
		backlog = append(backlog, backlogSample{at: rel, backlog: int64(dueCount) - recv, sinkLag: lag, recv: recv})
		if now >= nextScrape {
			nextScrape += int64(ingScrapeEach)
			s0 := time.Now()
			for _, t := range tels {
				t.Registry.WritePrometheus(io.Discard)
			}
			scrapes = append(scrapes, float64(time.Since(s0).Nanoseconds())/1e6)
		}
	}
	_, cpu, alloc := sp.end()
	hs.setActive(false)
	stopDepth()
	rowsBefore := sink.snapshotCells()
	killErr := p.kill()
	res.attempted++
	if killErr != nil {
		res.fail("ingest-remote: timed run: %v", killErr)
	}
	if v := p.chkErr.Load(); v != nil {
		// Epochs abandoned by the kill itself are expected; any other
		// failed epoch counts.
		fmt.Printf("# ingest-remote: checkpoint maintenance: %v\n", v)
	}
	coordStatuses := p.coordB.Graph().CheckpointStatuses()
	followStatuses := p.followB.Graph().CheckpointStatuses()
	committed := p.dc.CommittedEpoch()
	for _, s := range coordStatuses {
		if s.Epoch <= committed {
			res.attempted++
			if s.Err != nil || !s.Persisted {
				res.fail("ingest-remote: epoch %d: %v persisted=%v", s.Epoch, s.Err, s.Persisted)
			}
		}
	}
	if committed == 0 {
		res.fail("ingest-remote: no epoch committed during the timed phase")
	}
	emitted := p.src.pos

	// Recovery: rebuild and restore the pair from the newest committed
	// epoch, then run the rest of the input unpaced.
	r0 := nowNS()
	rs := time.Now()
	rp, rsink, _, err := ingestPair(in, false, cfg.seed, clock, [2]*telemetry.Telemetry{}, st, exec.CheckpointPolicy{Interval: time.Hour}, nil)
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	restoreMS := float64(time.Since(rs).Nanoseconds()) / 1e6
	var recovery float64
	deadline := time.Now().Add(stallLimit)
	for recovery == 0 {
		if first := rsink.firstAt(); first != 0 {
			recovery = float64(first-r0) / 1e6
			break
		}
		select {
		case err := <-rp.followErr:
			rp.followErr <- err
			recovery = float64(nowNS()-r0) / 1e6
		default:
			if time.Now().After(deadline) {
				killErr := rp.kill()
				return nil, fmt.Errorf("restored pair: no result within %v (kill: %v)", stallLimit, killErr)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	res.attempted++
	if err := rp.wait(); err != nil {
		res.fail("ingest-remote: restored run: %v", err)
	}
	base := rsink.base
	if base > len(rowsBefore) {
		return nil, fmt.Errorf("restored sink claims %d rows, only %d were delivered", base, len(rowsBefore))
	}
	all := append(rowsBefore[:base:base], rsink.cells...)
	ref.check(res, all)
	peak := hs.close()

	steps, sustainable := analyzeSteps(in, ref, rowsBefore, t0, p.src.lags, backlog)
	mid := steps[1]
	tuples := float64(emitted)
	lat := mid.lat.metric("ms")
	m["latency_p50_ms"] = lat
	lat99 := lat
	lat99.Value = mid.lat.quantile(0.99)
	m["latency_p99_ms"] = lat99
	// CPU over the open-loop schedule is printed only: the gated figure
	// comes from the capacity floods, whose spread is half as wide.
	m["open_loop_cpu_ns_per_tuple"] = metric{Value: float64(cpu.Nanoseconds()) / tuples, Unit: "ns", Samples: 1}
	m["alloc_bytes_per_tuple"] = metric{Value: float64(alloc) / tuples, Unit: "B", Samples: 1}
	m["peak_heap_mb"] = metric{Value: peak, Unit: "MB", Samples: 1}
	// Delivered throughput while the step above the knee runs: what the
	// remote pair consumes per second when offered more than it can take
	// (printed only: it swings with host load by ±20% between runs).
	var top []backlogSample
	for _, b := range backlog {
		if b.at >= int64(len(ingRates)-1)*in.stepNS {
			top = append(top, b)
		}
	}
	if len(top) < 2 {
		return nil, fmt.Errorf("no backlog samples during the top rate step")
	}
	first, last := top[0], top[len(top)-1]
	m["top_step_delivered_tps"] = metric{Value: float64(last.recv-first.recv) / (float64(last.at-first.at) / 1e9), Unit: "tuples/s", Samples: len(top)}
	m["sustainable_tps"] = metric{Value: sustainable, Unit: "tuples/s", Samples: 1}
	m["generator_lag_p99_ms"] = metric{Value: mid.lag.quantile(0.99), Unit: "ms", Samples: len(mid.lag)}
	// Feedback delay at the middle rate, like latency: above the knee the
	// producer blocks on a full edge and reads its control queue late.
	delays, sent := clock.delays(t0+in.stepNS, t0+2*in.stepNS)
	m["feedback_delay_p99_ms"] = metric{Value: delays.quantile(0.99), Unit: "ms", Samples: len(delays)}
	m["recovery_ms"] = metric{Value: recovery, Unit: "ms", Samples: 1}

	var aggIn, aggSupp int64
	for _, a := range aggs {
		st := a.Stats()
		aggIn += st.In
		aggSupp += st.InSuppressed
	}
	offered := float64(p.src.emitted+p.src.skipped.Load()) + float64(aggIn)
	saved := float64(p.src.skipped.Load() + aggSupp)
	m["work_saved_frac"] = metric{Value: saved / offered, Unit: "ratio", Samples: 1}
	fmt.Printf("# ingest-remote: %d tuples generated, %d emitted in the timed phase, %d suppressed at the producer; committed epoch %d; %d rows (%d before the cut + %d restored); %d zooms sent\n",
		len(in.recs), emitted, p.src.skipped.Load(), committed, len(all), base, len(rsink.cells), sent)

	if tr != nil {
		tr.tuples += int64(emitted)
		tr.feedbackSent += sent
		tr.aggSupp += aggSupp
		for _, t := range tels {
			tr.addScrape(t)
		}
		tr.addEdges(p.coordB.Graph().Edges())
		tr.addEdges(p.followB.Graph().Edges())
		var holds, encodes dist
		var bytes float64
		for _, s := range append(coordStatuses, followStatuses...) {
			holds = append(holds, float64(s.BarrierHold.Nanoseconds())/1e6)
			encodes = append(encodes, float64(s.Encode.Nanoseconds())/1e6)
			bytes += float64(s.Bytes)
		}
		r := tr.res
		r.setLayer("snapshot.barrier_hold_p99_ms", "ms", holds.quantile(0.99))
		r.setLayer("snapshot.encode_ms_p50", "ms", encodes.median())
		r.setLayer("snapshot.bytes_per_epoch", "B", bytes/float64(max(len(coordStatuses), 1)))
		r.setLayer("snapshot.epoch_commit_ms_p99", "ms", epochCommit(tels[0]).quantile(0.99))
		r.setLayer("snapshot.restore_ms", "ms", restoreMS)
		r.setLayer("telemetry.scrape_ms", "ms", scrapes.median())
		pr := tr.prom
		r.setLayer("remote.bytes_per_tuple", "B", pr["pace_remote_bytes_sent_total@to-consumer"]/max(pr["pace_remote_tuples_sent_total@to-consumer"], 1))
		r.setLayer("remote.frames_per_ktuple", "count", 1000*pr["pace_remote_frames_sent_total@to-consumer"]/max(pr["pace_remote_tuples_sent_total@to-consumer"], 1))
	}
	return m, nil
}

// backlogSample is one 20ms sample of the open-loop run (ns after the
// schedule started): tuples due but not yet consumed, how far the sink's
// newest closed window trails its due time, and recv, the tuples through
// the wire plus those the producer suppressed.
type backlogSample struct{ at, backlog, sinkLag, recv int64 }

// rateStep is what one offered rate produced.
type rateStep struct {
	lat, lag dist // result latency and generator lag, ms
	sustains bool
}

// analyzeSteps splits result latency (from the due time of the item that
// closed each window) and generator lag by rate step, applies the backlog
// test to each step, and returns the steps with the highest rate that it
// and every lower rate sustained.
func analyzeSteps(in *ingInput, ref *ingRef, rows []cellRow, t0 int64, lags []lagSample, backlog []backlogSample) ([]rateStep, float64) {
	steps := make([]rateStep, len(ingRates))
	stepOf := func(rel int64) int { return min(int(rel/in.stepNS), len(ingRates)-1) }
	for _, rw := range rows {
		w := rw.wstart / ingWindowUS
		if int(w) >= len(ref.closer) {
			continue
		}
		after := in.puncts[ref.closer[w]].after
		if after == 0 {
			continue
		}
		due := in.due[after-1]
		steps[stepOf(due)].lat = append(steps[stepOf(due)].lat, float64(rw.at-t0-due)/1e6)
	}
	for _, l := range lags {
		steps[stepOf(l.due)].lag = append(steps[stepOf(l.due)].lag, float64(l.lag)/1e6)
	}
	sustainable := 0.0
	for i := range steps {
		lo, hi := int64(i)*in.stepNS, int64(i+1)*in.stepNS
		var second, last dist
		var lagSecond, lagLast dist
		for _, b := range backlog {
			switch {
			case b.at >= lo+(hi-lo)/4 && b.at < lo+(hi-lo)/2:
				second = append(second, float64(b.backlog))
				lagSecond = append(lagSecond, float64(b.sinkLag))
			case b.at >= lo+3*(hi-lo)/4 && b.at < hi:
				last = append(last, float64(b.backlog))
				lagLast = append(lagLast, float64(b.sinkLag))
			}
		}
		// A backlog grows when, between the second and the last quarter of
		// the step, it rises by more than 2% of the step's offered tuples
		// (and 1000 tuples), or the sink falls behind by another window.
		offered := ingRates[i] * float64(in.stepNS) / 1e9
		growing := last.mean()-second.mean() > max(0.02*offered, 1000) ||
			lagLast.mean()-lagSecond.mean() > float64(ingWindowUS*1000)
		steps[i].sustains = !growing && len(steps[i].lat) > 0 && steps[i].lat.quantile(0.99) <= ingLatencyLimitMS
		if steps[i].sustains && (i == 0 || sustainable == ingRates[i-1]) {
			sustainable = ingRates[i]
		}
		fmt.Printf("# ingest-remote step %d: offered %.0f tuples/s, latency p50 %.3f ms p99 %.3f ms (%d rows), generator lag p99 %.3f ms, backlog %.0f → %.0f tuples, sustainable=%v\n",
			i, ingRates[i], steps[i].lat.quantile(0.5), steps[i].lat.quantile(0.99), len(steps[i].lat),
			steps[i].lag.quantile(0.99), second.mean(), last.mean(), steps[i].sustains)
	}
	return steps, sustainable
}

// epochCommit returns, per committed epoch in the coordinator's timeline,
// the time from its first event to its commit, in ms.
func epochCommit(tel *telemetry.Telemetry) dist {
	var d dist
	if tel == nil {
		return d
	}
	first := map[int64]time.Time{}
	for _, e := range tel.Timeline.Events() {
		if _, ok := first[e.Epoch]; !ok {
			first[e.Epoch] = e.At
		}
		if e.Phase == "commit" {
			d = append(d, float64(e.At.Sub(first[e.Epoch]).Nanoseconds())/1e6)
		}
	}
	return d
}
