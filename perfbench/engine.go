package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// clockBase anchors every timestamp the benchmark records; nowNS is
// monotonic nanoseconds since process start.
var clockBase = time.Now()

func nowNS() int64 { return int64(time.Since(clockBase)) }

// punctMark places one progress punctuation after the tuple at index
// after-1 of a generated stream.
type punctMark struct {
	after int
	e     punct.Embedded
}

// input is a generated, punctuated stream held as tuples plus punctuation
// positions (no per-item queue.Item, to keep large inputs compact). An
// input too large to hold as tuples sets n and build instead: build
// materializes tuples [lo, hi) into buf when the source emits them.
type input struct {
	tuples []stream.Tuple
	puncts []punctMark
	n      int
	build  func(lo, hi int, buf []stream.Tuple) []stream.Tuple
}

func (in *input) len() int {
	if in.build != nil {
		return in.n
	}
	return len(in.tuples)
}

func (in *input) slice(lo, hi int, buf []stream.Tuple) []stream.Tuple {
	if in.build != nil {
		return in.build(lo, hi, buf)
	}
	return in.tuples[lo:hi]
}

// replaySource replays an input as fast as the plan accepts it. It records
// when Next is first called (the end of set-up) and when each punctuation
// was emitted (the start of result latency in closed loop). With a guard
// table it exploits assumed feedback, like the engine's own sources.
type replaySource struct {
	name   string
	schema stream.Schema
	in     *input
	batch  int
	guards *core.GuardTable // nil: feedback-unaware
	// onFeedback, if set, observes every feedback the source receives.
	onFeedback func(core.Feedback)
	// due, if set, paces the replay open loop: tuple i is due due[i] ns
	// after the first Next. lags records, per emitted run, how late its
	// first tuple left against its due time.
	due  []int64
	lags []lagSample

	pos, pi   int
	dueUpTo   int // tuples [0, dueUpTo) are due
	firstNext atomic.Int64
	punctAt   []int64
	emitted   int64
	skipped   atomic.Int64 // read by the open-loop backlog sampler
	scratch   []stream.Tuple
	mat       []stream.Tuple
}

func newReplaySource(name string, schema stream.Schema, in *input, feedbackAware bool) *replaySource {
	s := &replaySource{name: name, schema: schema, in: in, batch: 256, punctAt: make([]int64, len(in.puncts))}
	if feedbackAware {
		s.guards = core.NewGuardTable(schema.Arity())
	}
	return s
}

func (s *replaySource) Name() string                { return s.name }
func (s *replaySource) OutSchemas() []stream.Schema { return []stream.Schema{s.schema} }
func (s *replaySource) Open(exec.Context) error     { return nil }
func (s *replaySource) Close(exec.Context) error    { return nil }

func (s *replaySource) started() bool { return s.firstNext.Load() != 0 }

// awaitStart polls until started reports true, the end of a plan's set-up.
// A run that ends first (its error is put back on its channel for the
// caller's wait) or a wait longer than stallLimit is an error, so a plan
// that fails before its first Next cannot hang the benchmark.
func awaitStart(started func() bool, runs ...chan error) error {
	deadline := time.Now().Add(stallLimit)
	for !started() {
		for _, ch := range runs {
			select {
			case err := <-ch:
				ch <- err
				if started() {
					return nil
				}
				return fmt.Errorf("plan ended before its first Next: %v", err)
			default:
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no first Next within %v", stallLimit)
		}
		time.Sleep(20 * time.Microsecond)
	}
	return nil
}

func (s *replaySource) ProcessFeedback(_ int, f core.Feedback, _ exec.Context) error {
	if s.onFeedback != nil {
		s.onFeedback(f)
	}
	if s.guards != nil && f.Intent == core.Assumed {
		s.guards.Install(f)
	}
	return nil
}

// Next emits up to one batch of tuples, stopping at the next punctuation,
// which it then emits.
func (s *replaySource) Next(ctx exec.Context) (bool, error) {
	if s.firstNext.Load() == 0 {
		s.firstNext.Store(nowNS())
	}
	limit := s.in.len()
	if s.pi < len(s.in.puncts) {
		limit = s.in.puncts[s.pi].after
	}
	if s.due != nil && s.pos < limit {
		rel := nowNS() - s.firstNext.Load()
		for s.dueUpTo < len(s.due) && s.due[s.dueUpTo] <= rel {
			s.dueUpTo++
		}
		if s.dueUpTo <= s.pos {
			// Ahead of schedule: wait for the next tuple's due time.
			time.Sleep(time.Duration(min(s.due[s.pos]-rel, int64(time.Millisecond))))
			return true, nil
		}
		limit = min(limit, s.dueUpTo)
		s.lags = append(s.lags, lagSample{due: s.due[s.pos], lag: rel - s.due[s.pos]})
	}
	end := min(s.pos+s.batch, limit)
	if end > s.pos {
		s.mat = s.in.slice(s.pos, end, s.mat[:0])
		s.emitRun(ctx, s.mat)
	}
	s.pos = end
	if s.pi < len(s.in.puncts) && s.pos == s.in.puncts[s.pi].after {
		e := s.in.puncts[s.pi].e
		if s.guards != nil {
			s.guards.ObservePunct(e)
		}
		ctx.EmitPunct(e)
		s.punctAt[s.pi] = nowNS()
		s.pi++
	}
	return s.pos < s.in.len() || s.pi < len(s.in.puncts), nil
}

// emitRun hands a run of tuples downstream, through the batched emit path
// when the runtime offers it and no guard can suppress.
func (s *replaySource) emitRun(ctx exec.Context, run []stream.Tuple) {
	if len(run) == 0 {
		return
	}
	if s.guards == nil || s.guards.Active() == 0 {
		s.emitted += int64(len(run))
		if be, ok := ctx.(exec.BatchEmitter); ok {
			be.EmitBatch(run)
			return
		}
		for _, t := range run {
			ctx.Emit(t)
		}
		return
	}
	buf := s.scratch[:0]
	for _, t := range run {
		if s.guards.Suppress(t) {
			s.skipped.Add(1)
			continue
		}
		buf = append(buf, t)
	}
	s.emitted += int64(len(buf))
	if be, ok := ctx.(exec.BatchEmitter); ok {
		be.EmitBatch(buf)
	} else {
		for _, t := range buf {
			ctx.Emit(t)
		}
	}
	s.scratch = buf[:0]
}

// lagSample is how late (ns) the generator emitted a run due at due.
type lagSample struct{ due, lag int64 }

// CaptureState implements snapshot.TwoPhase: the replay position and the
// installed guards. A restored source replays the rest of its input
// unpaced.
func (s *replaySource) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	pos, pi, emitted, skipped := s.pos, s.pi, s.emitted, s.skipped.Load()
	guards := snapshot.GuardsView(s.guards)
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		enc.PutInt(pos)
		enc.PutInt(pi)
		enc.PutInt64(emitted)
		enc.PutInt64(skipped)
		snapshot.PutGuardsView(enc, guards)
		return nil
	}}, nil
}

// SaveState implements snapshot.Stater.
func (s *replaySource) SaveState(enc *snapshot.Encoder) error { return snapshot.EncodeCapture(s, enc) }

// LoadState implements snapshot.Stater.
func (s *replaySource) LoadState(dec *snapshot.Decoder) error {
	s.pos, s.pi = dec.GetInt(), dec.GetInt()
	s.emitted = dec.GetInt64()
	s.skipped.Store(dec.GetInt64())
	s.guards = snapshot.GetGuards(dec, s.schema.Arity())
	if err := dec.Err(); err != nil {
		return err
	}
	if s.pos < 0 || s.pos > s.in.len() || s.pi < 0 || s.pi > len(s.in.puncts) {
		return fmt.Errorf("replay source %q: restored position %d/%d outside its input", s.name, s.pos, s.pi)
	}
	s.due = nil
	return nil
}

// row is one result tuple with its arrival time at the sink.
type row struct {
	t  stream.Tuple
	at int64
}

// rowSink records every result with its arrival time; the harness reads
// the rows only after Run returns.
type rowSink struct {
	exec.Base
	name   string
	schema stream.Schema
	rows   []row
}

// newRowSink records into rows[:0]; callers allocate the buffer outside
// the timed span, so set-up measures the engine, not the harness.
func newRowSink(name string, schema stream.Schema, rows []row) *rowSink {
	return &rowSink{name: name, schema: schema, rows: rows[:0]}
}

func (s *rowSink) Name() string                { return s.name }
func (s *rowSink) InSchemas() []stream.Schema  { return []stream.Schema{s.schema} }
func (s *rowSink) OutSchemas() []stream.Schema { return nil }

func (s *rowSink) ProcessTuple(_ int, t stream.Tuple, _ exec.Context) error {
	s.rows = append(s.rows, row{t: t, at: nowNS()})
	return nil
}

// ProcessTupleBatch takes the runtime's batched dispatch: one clock read
// per run of results.
func (s *rowSink) ProcessTupleBatch(_ int, items []queue.Item, _ exec.Context) error {
	at := nowNS()
	for i := range items {
		s.rows = append(s.rows, row{t: items[i].Tuple, at: at})
	}
	return nil
}
