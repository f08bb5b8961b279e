package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// kindSchema has one attribute of every value kind.
var kindSchema = stream.MustSchema(
	stream.F("i", stream.KindInt),
	stream.F("f", stream.KindFloat),
	stream.F("s", stream.KindString),
	stream.F("t", stream.KindTime),
	stream.F("b", stream.KindBool),
)

// bytesConn is a read-only net.Conn over a byte slice: the data path of a
// Source reads and closes, and never writes or sets deadlines.
type bytesConn struct {
	net.Conn
	r *bytes.Reader
}

func (c *bytesConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c *bytesConn) Close() error               { return nil }

func randValue(r *rand.Rand, k stream.Kind) stream.Value {
	if r.Intn(8) == 0 {
		return stream.Null
	}
	switch k {
	case stream.KindInt:
		return stream.Int([]int64{0, -1, 1 << 40, math.MinInt64, math.MaxInt64, r.Int63()}[r.Intn(6)])
	case stream.KindFloat:
		return stream.Float([]float64{0, -2.5, math.Inf(1), math.MaxFloat64, r.NormFloat64()}[r.Intn(5)])
	case stream.KindString:
		return stream.String_([]string{"", "a,b", "\"q\"", strings.Repeat("x", 300), "ü"}[r.Intn(5)])
	case stream.KindTime:
		return stream.TimeMicros(r.Int63n(1 << 50))
	default:
		return stream.Bool(r.Intn(2) == 0)
	}
}

// wireEvent is one item of a generated edge stream, in wire order.
type wireEvent struct {
	tuple   *stream.Tuple
	punct   *punct.Pattern
	barrier *wireBarrier // received = tuples ahead of the barrier
}

// genStream builds a random edge stream over kindSchema: runs of tuples of
// every value kind and Seq, cut by punct and barrier frames and by random
// flushes, as a Sink would write them. It returns the events and the wire
// bytes, EOS included.
func genStream(r *rand.Rand) ([]wireEvent, []byte) {
	var (
		events []wireEvent
		wire   bytes.Buffer
		tuples int64
		epoch  int64
	)
	w := newFrameWriter()
	for i := 0; i < 1+r.Intn(200); i++ {
		switch x := r.Intn(20); {
		case x < 16:
			vals := make([]stream.Value, kindSchema.Arity())
			for j := range vals {
				vals[j] = randValue(r, kindSchema.Field(j).Kind)
			}
			t := stream.NewTuple(vals...).WithSeq(r.Int63n(1<<62) - 1<<61)
			if err := w.tuple(t); err != nil {
				panic(err)
			}
			tuples++
			events = append(events, wireEvent{tuple: &t})
		case x < 18:
			p := punct.OnAttr(kindSchema.Arity(), 3, punct.Le(stream.TimeMicros(r.Int63n(1<<50))))
			if r.Intn(2) == 0 {
				p = p.With(0, punct.OneOf(stream.Int(1), stream.Int(2), stream.Int(3), stream.Int(4), stream.Int(5), stream.Int(6)))
			}
			w.punct(p)
			events = append(events, wireEvent{punct: &p})
		default:
			epoch += 1 + r.Int63n(3)
			b := wireBarrier{epoch: epoch, mode: snapshot.CaptureMode(r.Intn(2)), received: tuples}
			w.barrier(b.epoch, b.mode)
			events = append(events, wireEvent{barrier: &b})
		}
		if r.Intn(10) == 0 {
			w.flush(&wire)
		}
	}
	w.eos()
	w.flush(&wire)
	return events, wire.Bytes()
}

// replay runs wire bytes through a Source on kindSchema, recording the
// barriers it hands to its hook.
func replay(wire []byte) (*exec.Harness, []wireBarrier) {
	src := NewSource("in", kindSchema, &bytesConn{r: bytes.NewReader(wire)})
	var barriers []wireBarrier
	src.SetBarrierHook(func(epoch int64, mode snapshot.CaptureMode) error {
		received, _ := src.Stats()
		barriers = append(barriers, wireBarrier{epoch: epoch, mode: mode, received: received})
		return nil
	})
	return exec.NewSourceHarness(src).RunSource(1 << 20), barriers
}

// TestFrameRoundTrip is the wire format's property test: every value kind
// and Seq survives, multi-tuple runs keep their order, and punct and
// barrier frames land exactly between the tuples they were written
// between.
func TestFrameRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for iter := 0; iter < 200; iter++ {
		events, wire := genStream(r)
		h, barriers := replay(wire)
		if h.Err() != nil {
			t.Fatalf("iteration %d: %v", iter, h.Err())
		}
		var wantItems []wireEvent
		var wantBarriers []wireBarrier
		for _, e := range events {
			if e.barrier != nil {
				wantBarriers = append(wantBarriers, *e.barrier)
			} else {
				wantItems = append(wantItems, e)
			}
		}
		got := h.Out(0)
		if len(got) != len(wantItems) {
			t.Fatalf("iteration %d: %d items out, want %d", iter, len(got), len(wantItems))
		}
		for i, e := range wantItems {
			switch it := got[i]; {
			case e.tuple != nil:
				if it.Kind != queue.ItemTuple || !it.Tuple.Equal(*e.tuple) || it.Tuple.Seq != e.tuple.Seq {
					t.Fatalf("iteration %d item %d: got %+v, want tuple %v seq %d", iter, i, it, *e.tuple, e.tuple.Seq)
				}
				for j, v := range it.Tuple.Values {
					if v.Kind != e.tuple.Values[j].Kind {
						t.Fatalf("iteration %d item %d: value %d kind %v, want %v", iter, i, j, v.Kind, e.tuple.Values[j].Kind)
					}
				}
			default:
				if it.Kind != queue.ItemPunct || !it.Punct.Pattern.Equal(*e.punct) {
					t.Fatalf("iteration %d item %d: got %+v, want punct %v", iter, i, it, *e.punct)
				}
			}
		}
		if len(barriers) != len(wantBarriers) {
			t.Fatalf("iteration %d: %d barriers, want %d", iter, len(barriers), len(wantBarriers))
		}
		for i := range wantBarriers {
			if barriers[i] != wantBarriers[i] {
				t.Fatalf("iteration %d: barrier %d = %+v, want %+v", iter, i, barriers[i], wantBarriers[i])
			}
		}
	}
}

// TestFeedbackFrameRoundTrip: feedback frames carry intent, pattern,
// origin, hops and sequence unchanged.
func TestFeedbackFrameRoundTrip(t *testing.T) {
	fbs := []core.Feedback{
		core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(3)))),
		{Intent: core.Desired, Pattern: punct.AllWild(3), Origin: "zoom-sink", Hops: 2, Seq: -7},
		{Intent: core.Demanded, Pattern: punct.OnAttr(3, 2, punct.Range(stream.Float(1), stream.Float(2))), Seq: math.MaxInt64},
	}
	w := newFrameWriter()
	for _, f := range fbs {
		w.feedback(f)
	}
	var wire bytes.Buffer
	if frames, _, err := w.flush(&wire); err != nil || frames != len(fbs) {
		t.Fatalf("flush: %d frames, %v", frames, err)
	}
	fr := newFrameReader(&wire)
	for i, want := range fbs {
		kind, payload, err := fr.next()
		if err != nil || kind != frameFeedback {
			t.Fatalf("frame %d: kind %d, %v", i, kind, err)
		}
		got, err := decodeFeedback(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got.Intent != want.Intent || !got.Pattern.Equal(want.Pattern) || got.Origin != want.Origin ||
			got.Hops != want.Hops || got.Seq != want.Seq {
			t.Errorf("feedback %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}
}

// TestSinkRunFrames: a run frame carries up to FlushEvery tuples and is cut
// early by punctuation, so a 1000-tuple stream at the default FlushEvery
// crosses in ceil(1000/64) run frames plus EOS.
func TestSinkRunFrames(t *testing.T) {
	c1, c2 := net.Pipe()
	tuples := make([]stream.Tuple, 1000)
	for i := range tuples {
		tuples[i] = mkTuple(int64(i%5), int64(i)*1000, 50)
	}
	gp := exec.NewGraph()
	sink := NewSink("out", schema, c1)
	gp.Add(sink, exec.From(gp.AddSource(exec.NewSliceSource("src", schema, tuples...))))
	col := exec.NewCollector("col", schema)
	gc := exec.NewGraph()
	rsrc := NewSource("in", schema, c2)
	gc.Add(col, exec.From(gc.AddSource(rsrc)))
	errs := make(chan error, 2)
	go func() { errs <- gp.Run() }()
	go func() { errs <- gc.Run() }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := len(col.Tuples()); got != len(tuples) {
		t.Fatalf("%d tuples crossed, want %d", got, len(tuples))
	}
	if frames, want := sink.framesOut.Load(), int64((len(tuples)+63)/64+1); frames != want {
		t.Errorf("%d frames sent, want %d (runs of 64 plus EOS)", frames, want)
	}
	if sink.framesOut.Load() != rsrc.framesIn.Load() || sink.bytesOut.Load() != rsrc.bytesIn.Load() {
		t.Errorf("sent %d frames / %d bytes, received %d / %d", sink.framesOut.Load(), sink.bytesOut.Load(),
			rsrc.framesIn.Load(), rsrc.bytesIn.Load())
	}
}

// TestFrameErrors: malformed streams fail with a clean error naming the
// fault — never a panic, a misparse, or a silent clean end of stream.
func TestFrameErrors(t *testing.T) {
	head := append([]byte(wireMagic), wireVersion)
	frame := func(kind byte, payload []byte) []byte {
		b := append(append([]byte(nil), head...), kind)
		b = binary.AppendUvarint(b, uint64(len(payload)))
		return append(b, payload...)
	}
	run := func(arity int) []byte {
		b := binary.AppendUvarint(nil, 1)
		b = binary.AppendVarint(b, 0)
		b = binary.AppendUvarint(b, uint64(arity))
		for i := 0; i < arity; i++ {
			b = stream.Int(int64(i)).AppendBinary(b)
		}
		return b
	}
	overLimit := append(append([]byte(nil), head...), frameRun)
	overLimit = binary.AppendUvarint(overLimit, maxFrameLen+1)
	for _, tc := range []struct {
		name, wire, want string
	}{
		{"wrong magic", "gob-ish stream", "not a remote edge"},
		{"wrong version", wireMagic + "\x09", "wire version 9"},
		{"wrong arity", string(frame(frameRun, run(2))), "arity 2, schema wants 3"},
		{"count past payload", string(frame(frameRun, binary.AppendUvarint(nil, 1000))), "cannot fit"},
		{"trailing bytes", string(frame(frameRun, append(run(3), 0))), "trailing"},
		{"over-limit length", string(overLimit), "exceeds"},
		{"unknown kind", string(frame(99, nil)), "unexpected frame kind 99"},
		{"punct arity", string(frame(framePunct, punct.AllWild(2).AppendBinary(nil))), "punct pattern has arity 2"},
		{"feedback downstream", string(frame(frameFeedback, nil)), "unexpected frame kind"},
		{"bare close", string(frame(frameRun, run(3))), "before end of stream"},
	} {
		h := exec.NewSourceHarness(NewSource("in", schema, &bytesConn{r: bytes.NewReader([]byte(tc.wire))})).RunSource(100)
		if h.Err() == nil || !strings.Contains(h.Err().Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, h.Err(), tc.want)
		}
	}

	// Truncation at every byte of a valid stream: a cut at a frame boundary
	// is a producer crash, a cut inside a frame a truncated frame.
	_, wire := genStream(rand.New(rand.NewSource(37)))
	for cut := 0; cut < len(wire); cut++ {
		h, _ := replay(wire[:cut])
		err := h.Err()
		if err == nil {
			t.Fatalf("stream cut at %d/%d replayed without error", cut, len(wire))
		}
		if !strings.Contains(err.Error(), "before end of stream") && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: %v, want a crash or truncation error", cut, err)
		}
	}
}

// TestSinkRejectsOversizedTuple: a tuple no frame can hold fails the sink
// rather than writing a frame the reader must refuse.
func TestSinkRejectsOversizedTuple(t *testing.T) {
	w := newFrameWriter()
	if err := w.tuple(mkTuple(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	huge := stream.NewTuple(stream.String_(strings.Repeat("x", maxFrameLen)))
	if err := w.tuple(huge); err == nil || !strings.Contains(err.Error(), "frame bound") {
		t.Fatalf("oversized tuple: %v", err)
	}
	if w.runN != 0 || w.frames != 1 {
		t.Errorf("the run before the oversized tuple must close intact: runN=%d frames=%d", w.runN, w.frames)
	}
}

// countCtx is a Context that checks and counts what a source emits, storing
// nothing, so a fuzz iteration's allocations are the decoder's own.
type countCtx struct {
	arity          int
	tuples, puncts int
	bad            bool
}

func (c *countCtx) Emit(t stream.Tuple) {
	c.tuples++
	c.bad = c.bad || t.Arity() != c.arity
}
func (c *countCtx) EmitTo(_ int, t stream.Tuple) { c.Emit(t) }
func (c *countCtx) EmitPunct(e punct.Embedded) {
	c.puncts++
	c.bad = c.bad || e.Pattern.Arity() != c.arity
}
func (c *countCtx) EmitPunctTo(_ int, e punct.Embedded) { c.EmitPunct(e) }
func (c *countCtx) SendFeedback(int, core.Feedback)     {}
func (c *countCtx) ShutdownUpstream(int)                {}
func (c *countCtx) NumInputs() int                      { return 0 }
func (c *countCtx) NumOutputs() int                     { return 1 }
func (c *countCtx) Logf(string, ...any)                 {}

// FuzzSourceFrames feeds arbitrary bytes to a Source's data path: it must
// return an error or well-formed tuples and punctuation, never panic, and
// never size a buffer by a claimed length or count the input does not
// back — a frame claiming a huge payload or run over a short stream must
// not make the reader allocate what it claims.
//
//	go test -run='^$' -fuzz=FuzzSourceFrames -fuzztime=20s ./internal/remote/
func FuzzSourceFrames(f *testing.F) {
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 8; i++ {
		_, wire := genStream(r)
		f.Add(wire)
	}
	f.Add([]byte(wireMagic))
	f.Add(append([]byte(wireMagic), wireVersion, frameRun, 0xff, 0xff, 0xff, 0x07))
	f.Add(append([]byte(wireMagic), wireVersion, frameRun, 4, 0xff, 0xff, 0xff, 0x07))
	f.Fuzz(func(t *testing.T, wire []byte) {
		src := NewSource("in", kindSchema, &bytesConn{r: bytes.NewReader(wire)})
		src.SetBarrierHook(func(int64, snapshot.CaptureMode) error { return nil })
		ctx := &countCtx{arity: kindSchema.Arity()}
		var err error
		if err = src.Open(ctx); err != nil {
			t.Fatal(err)
		}
		for more := true; more && err == nil; {
			more, err = src.Next(ctx)
		}
		if ctx.bad {
			t.Fatalf("malformed tuple or punctuation emitted (err %v)", err)
		}
		if received, _ := src.Stats(); received != int64(ctx.tuples) {
			t.Fatalf("source counted %d tuples, emitted %d", received, ctx.tuples)
		}
		// The payload buffer grows only as bytes arrive (at most doubling
		// past its 4 KiB start), and a run's tuples each take input bytes.
		if c := cap(src.fr.payload); c > max(2*len(wire), 4096) {
			t.Fatalf("%d input bytes grew the payload buffer to %d", len(wire), c)
		}
		if c := cap(src.run); c > len(wire) {
			t.Fatalf("%d input bytes grew the run buffer to %d tuples", len(wire), c)
		}
	})
}
