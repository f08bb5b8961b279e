package exec

import (
	"strings"
	"testing"

	"repro/internal/stream"
)

// panicky forwards tuples until it sees value at, then panics.
type panicky struct {
	passthrough
	at int64
}

func (p *panicky) ProcessTuple(in int, t stream.Tuple, ctx Context) error {
	if t.Values[0].I == p.at {
		panic("kaboom at " + t.String())
	}
	return p.passthrough.ProcessTuple(in, t, ctx)
}

// TestOperatorPanicBecomesNodeError: a panic in an operator callback
// mid-stream must not take the process down. Run returns it as that node's
// error — naming the operator, its node id, the panic value and the stack —
// the rest of the plan shuts down, and every node still retires from
// checkpoint bookkeeping.
func TestOperatorPanicBecomesNodeError(t *testing.T) {
	tuples := make([]stream.Tuple, 5000)
	for i := range tuples {
		tuples[i] = intTuple(int64(i))
	}
	g := NewGraph()
	sid := g.AddSource(NewSliceSource("src", oneInt, tuples...))
	pid := g.Add(&panicky{passthrough: passthrough{name: "boom"}, at: 2500}, From(sid))
	sink := NewCollector("sink", oneInt)
	g.Add(sink, From(pid))

	err := g.Run()
	if err == nil {
		t.Fatal("Run returned nil after an operator panic")
	}
	msg := err.Error()
	for _, want := range []string{`node "boom"`, "node id 1", "kaboom at", "(*panicky).ProcessTuple"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error lacks %q:\n%s", want, msg)
		}
	}
	if n := sink.Count(); n > 2500 {
		t.Errorf("sink saw %d tuples, want at most the 2500 before the panic", n)
	}
	g.chkMu.Lock()
	live := len(g.liveNodes)
	g.chkMu.Unlock()
	if live != 0 {
		t.Errorf("%d nodes never ran nodeExit", live)
	}
}
