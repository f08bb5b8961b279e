package punct_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/stream"
)

// FuzzDecodePattern feeds arbitrary bytes to the pattern decoder, the
// first thing remote feedback and punctuation frames reach. Whatever
// decodes must re-encode to bytes that decode to the same pattern, and
// must install into a guard table, probe and expire there without a
// panic, with Suppress agreeing with Pattern.Matches.
//
//	go test -run='^$' -fuzz=FuzzDecodePattern -fuzztime=20s ./internal/punct/
func FuzzDecodePattern(f *testing.F) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 16; i++ {
		f.Add(punct.RandPattern(r).AppendBinary(nil))
	}
	f.Add(punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(1_000_000))).AppendBinary(nil))
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, _, err := punct.DecodePattern(b)
		if err != nil {
			return
		}
		enc := p.AppendBinary(nil)
		q, rest, err := punct.DecodePattern(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded %s does not decode: %v (%d trailing bytes)", p, err, len(rest))
		}
		if again := q.AppendBinary(nil); !bytes.Equal(again, enc) {
			t.Fatalf("round trip changed %s to %s", p, q)
		}

		g := core.NewGuardTable(p.Arity())
		if !g.Install(core.NewAssumed(p)) {
			t.Fatalf("install of %s into an empty table was refused", p)
		}
		g.Install(core.NewAssumed(q))
		// A tuple built from the pattern's own operands, and one of Nulls.
		vals, nulls := make([]stream.Value, p.Arity()), make([]stream.Value, p.Arity())
		for i := range vals {
			switch pr := p.Pred(i); {
			case pr.Op == punct.In && len(pr.Set) > 0:
				vals[i] = pr.Set[0]
			default:
				vals[i] = pr.Val
			}
		}
		for _, tup := range []stream.Tuple{stream.NewTuple(vals...), stream.NewTuple(nulls...)} {
			if got, want := g.Suppress(tup), p.Matches(tup); got != want {
				t.Fatalf("guard %s: Suppress(%v) = %v, Matches = %v", p, tup, got, want)
			}
		}
		if got, want := g.Covers(p), p.Implies(p); got != want {
			t.Fatalf("guard %s: Covers = %v, Implies itself = %v", p, got, want)
		}
		g.ObservePunct(punct.NewEmbedded(p))
	})
}
