package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/punct"
	"repro/internal/stream"
)

// linearGuardTable is the guard table without an index: one slice in
// installation order, scanned whole by every operation. The indexed
// GuardTable must agree with it exactly. Install decides before it
// mutates: a version that returned early on a redundant guard after
// dropping a subsumed one re-spliced a half-compacted slice.
type linearGuardTable struct {
	guards  []Guard
	scheme  *punct.Scheme
	merged  int
	expired int
	hits    int64
}

func newLinearGuardTable(arity int) *linearGuardTable {
	return &linearGuardTable{scheme: punct.NewScheme(arity)}
}

func (g *linearGuardTable) Install(f Feedback) bool {
	p := f.Pattern
	for _, old := range g.guards {
		if !old.Pattern.Implies(p) && p.Implies(old.Pattern) {
			return false
		}
	}
	kept := g.guards[:0]
	for _, old := range g.guards {
		if old.Pattern.Implies(p) {
			g.merged++
			continue
		}
		kept = append(kept, old)
	}
	g.guards = append(kept, Guard{Pattern: p, Source: f})
	return true
}

func (g *linearGuardTable) Suppress(t stream.Tuple) bool {
	for _, gd := range g.guards {
		if gd.Pattern.Matches(t) {
			g.hits++
			return true
		}
	}
	return false
}

func (g *linearGuardTable) Covers(p punct.Pattern) bool {
	for _, gd := range g.guards {
		if p.Implies(gd.Pattern) {
			return true
		}
	}
	return false
}

func (g *linearGuardTable) ObservePunct(e punct.Embedded) int {
	g.scheme.Observe(e)
	kept := g.guards[:0]
	released := 0
	for _, gd := range g.guards {
		if g.scheme.CoversPattern(gd.Pattern) {
			released++
			continue
		}
		kept = append(kept, gd)
	}
	g.guards = kept
	g.expired += released
	return released
}

// oracleValue draws from a domain small enough that Eq guards collide
// often, with the kinds whose hashes and equalities cross: Int k, the
// Float k that Equals it, the Time k and Bool that hash like it without
// being Equal, a non-integral Float, Null, and the magnitudes from 2^53 up
// where distinct Ints Equal one Float.
func oracleValue(r *rand.Rand) stream.Value {
	k := r.Int63n(5)
	switch r.Intn(12) {
	case 0, 1, 2, 3:
		return stream.Int(k)
	case 4, 5:
		return stream.Float(float64(k))
	case 6:
		return stream.TimeMicros(k)
	case 7:
		return stream.Bool(k%2 == 1)
	case 8:
		return stream.Float(float64(k) + 0.5)
	case 9:
		return stream.Null
	case 10:
		return stream.Int(1<<53 + k - 2)
	default:
		return stream.Float(1<<53 + float64(2*(k-2)))
	}
}

func oraclePred(r *rand.Rand) punct.Pred {
	switch r.Intn(10) {
	case 0, 1, 2, 3:
		return punct.Eq(oracleValue(r))
	case 4:
		set := make([]stream.Value, r.Intn(7))
		for i := range set {
			set[i] = oracleValue(r)
		}
		return punct.OneOf(set...)
	case 5:
		return punct.Le(oracleValue(r))
	case 6:
		return punct.Ge(oracleValue(r))
	case 7:
		return punct.Range(oracleValue(r), oracleValue(r))
	case 8:
		return punct.NullPred()
	default:
		return punct.Wild
	}
}

func oraclePattern(r *rand.Rand, arity int) punct.Pattern {
	if r.Intn(20) == 0 {
		arity++ // a stray arity: relates to and matches nothing
	}
	preds := make([]punct.Pred, arity)
	for i := range preds {
		preds[i] = oraclePred(r)
	}
	return punct.NewPattern(preds...)
}

func oracleTuple(r *rand.Rand, arity int) stream.Tuple {
	vals := make([]stream.Value, arity)
	for i := range vals {
		vals[i] = oracleValue(r)
	}
	return stream.NewTuple(vals...)
}

// guardSeqs names a table's guards, in order, by the Seq of the feedback
// that installed each.
func guardSeqs(gs []Guard) []int64 {
	out := make([]int64, len(gs))
	for i, gd := range gs {
		out[i] = gd.Source.Seq
	}
	return out
}

// Property: the indexed GuardTable is observationally identical to the
// linear reference under random Install / ObservePunct / Suppress / Covers
// sequences: every result, the guard order, Active and Stats.
func TestGuardTableMatchesLinearOracle(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 400; trial++ {
		arity := 1 + r.Intn(3)
		g, ref := NewGuardTable(arity), newLinearGuardTable(arity)
		var seq int64
		for step := 0; step < 120; step++ {
			var what string
			switch op := r.Intn(20); {
			case op < 9:
				seq++
				f := NewAssumed(oraclePattern(r, arity))
				f.Seq = seq
				what = fmt.Sprintf("Install(%s)", f.Pattern)
				if got, want := g.Install(f), ref.Install(f); got != want {
					t.Fatalf("trial %d step %d: %s = %v, want %v", trial, step, what, got, want)
				}
			case op < 11:
				e := punct.NewEmbedded(oraclePattern(r, arity))
				what = fmt.Sprintf("ObservePunct(%s)", e.Pattern)
				if got, want := g.ObservePunct(e), ref.ObservePunct(e); got != want {
					t.Fatalf("trial %d step %d: %s = %d, want %d", trial, step, what, got, want)
				}
			case op < 13:
				p := oraclePattern(r, arity)
				what = fmt.Sprintf("Covers(%s)", p)
				if got, want := g.Covers(p), ref.Covers(p); got != want {
					t.Fatalf("trial %d step %d: %s = %v, want %v", trial, step, what, got, want)
				}
			default:
				tup := oracleTuple(r, arity)
				what = fmt.Sprintf("Suppress(%v)", tup)
				if got, want := g.Suppress(tup), ref.Suppress(tup); got != want {
					t.Fatalf("trial %d step %d: %s = %v, want %v", trial, step, what, got, want)
				}
			}
			if got, want := guardSeqs(g.Guards()), guardSeqs(ref.guards); fmt.Sprint(got) != fmt.Sprint(want) || g.Active() != len(ref.guards) {
				t.Fatalf("trial %d step %d: after %s guards %v (active %d), want %v", trial, step, what, got, g.Active(), want)
			}
			h, m, e := g.Stats()
			if h != ref.hits || m != ref.merged || e != ref.expired {
				t.Fatalf("trial %d step %d: after %s stats (%d, %d, %d), want (%d, %d, %d)",
					trial, step, what, h, m, e, ref.hits, ref.merged, ref.expired)
			}
		}
	}
}

// Mixed-kind values reach the right bucket: an Eq guard on Int 5 matches
// the tuple value Float 5.0, while Time 5 and Bool true, which hash like
// Int 5 and 1, do not match it.
func TestGuardTableMixedKindBuckets(t *testing.T) {
	g := NewGuardTable(1)
	g.Install(NewAssumed(punct.OnAttr(1, 0, punct.Eq(stream.Int(5)))))
	g.Install(NewAssumed(punct.OnAttr(1, 0, punct.Eq(stream.Int(1)))))
	if !g.Suppress(stream.NewTuple(stream.Float(5))) {
		t.Error("Eq(Int 5) must match Float 5.0")
	}
	if g.Suppress(stream.NewTuple(stream.TimeMicros(5))) {
		t.Error("Eq(Int 5) must not match Time 5")
	}
	if g.Suppress(stream.NewTuple(stream.Bool(true))) {
		t.Error("Eq(Int 1) must not match Bool true")
	}
	// Beyond 2^53 the Int and the Float that Equal each other hash apart;
	// such guards stay on the scan list and still match.
	g.Install(NewAssumed(punct.OnAttr(1, 0, punct.Eq(stream.Int(1<<53+1)))))
	if !g.Suppress(stream.NewTuple(stream.Float(1 << 53))) {
		t.Error("Eq(Int 2^53+1) must match Float 2^53, which Equals it")
	}
}

// fillEq installs n distinct per-key guards shaped like a join's
// per-(segment, window) feedback.
func fillEq(g *GuardTable, n int) {
	for i := 0; i < n; i++ {
		g.Install(NewAssumed(punct.NewPattern(punct.Eq(stream.Int(int64(1000+i))),
			punct.Range(stream.TimeMicros(0), stream.TimeMicros(999)), punct.Wild)))
	}
}

func TestGuardTableZeroAlloc(t *testing.T) {
	g := NewGuardTable(3)
	fillEq(g, 1024)
	g.Install(NewAssumed(punct.OnAttr(3, 1, punct.Ge(stream.TimeMicros(1<<40)))))
	miss := stream.NewTuple(stream.Int(7), stream.TimeMicros(5), stream.Float(1))
	hit := stream.NewTuple(stream.Int(1500), stream.TimeMicros(5), stream.Float(1))
	if g.Suppress(miss) || !g.Suppress(hit) {
		t.Fatal("probe tuples must miss and hit")
	}
	if n := testing.AllocsPerRun(100, func() { g.Suppress(miss); g.Suppress(hit) }); n != 0 {
		t.Errorf("Suppress at 1024 guards: %v allocs/run, want 0", n)
	}
	p := punct.NewPattern(punct.Eq(stream.Int(1500)), punct.Range(stream.TimeMicros(10), stream.TimeMicros(20)), punct.Wild)
	if !g.Covers(p) {
		t.Fatal("a narrower pattern on a guarded key must be covered")
	}
	if n := testing.AllocsPerRun(100, func() { g.Covers(p) }); n != 0 {
		t.Errorf("Covers at 1024 guards: %v allocs/run, want 0", n)
	}
	// A watermark that releases nothing costs a scan and no allocation.
	early := punct.NewEmbedded(punct.OnAttr(3, 1, punct.Lt(stream.TimeMicros(0))))
	g.ObservePunct(early)
	if n := testing.AllocsPerRun(100, func() { g.ObservePunct(early) }); n != 0 {
		t.Errorf("ObservePunct at 1024 guards: %v allocs/run, want 0", n)
	}
}

// Released guards leave no trace: after every guard of a period expires
// and the next period's arrive, the table holds exactly the new ones and
// its slots are compacted.
func TestGuardTableReleaseCompacts(t *testing.T) {
	g := NewGuardTable(3)
	for period := int64(0); period < 4; period++ {
		for k := int64(0); k < 100; k++ {
			g.Install(NewAssumed(punct.NewPattern(punct.Eq(stream.Int(k)),
				punct.Range(stream.TimeMicros(period*100), stream.TimeMicros(period*100+99)), punct.Wild)))
		}
		if n := g.ObservePunct(punct.NewEmbedded(punct.OnAttr(3, 1, punct.Lt(stream.TimeMicros(period*100+100))))); n != 100 {
			t.Fatalf("period %d: released %d, want 100", period, n)
		}
		if g.Active() != 0 || len(g.guards) != 0 || len(g.scan) != 0 {
			t.Fatalf("period %d: %d active, %d slots, %d scan entries after release", period, g.Active(), len(g.guards), len(g.scan))
		}
	}
	// Repeated widening of one key's guard merges in place; slots stay
	// bounded by twice the live guards.
	for i := int64(0); i < 1000; i++ {
		g.Install(NewAssumed(punct.NewPattern(punct.Eq(stream.Int(1)), punct.Le(stream.TimeMicros(i)), punct.Wild)))
	}
	if g.Active() != 1 || len(g.guards) > 3 {
		t.Fatalf("after 1000 widenings: %d active, %d slots", g.Active(), len(g.guards))
	}
	if _, merged, _ := g.Stats(); merged != 999 {
		t.Fatalf("merged = %d, want 999", merged)
	}
}
