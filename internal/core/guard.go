package core

import (
	"repro/internal/punct"
	"repro/internal/stream"
)

// Guard is one active suppression predicate installed in response to
// assumed feedback. Guards are the paper's strategies (1) and (2) in §4.3:
// an output guard avoids emitting matching tuples; an input guard avoids
// computing on matching tuples.
type Guard struct {
	Pattern punct.Pattern
	// Source identifies the feedback that installed the guard.
	Source Feedback

	// compiled is the evaluation form used on the probe path; it is built
	// once at Install so Suppress runs allocation-free. A nil compiled
	// marks a released slot awaiting compaction.
	compiled *punct.Compiled

	// attr is the attribute whose Eq value files the guard in the index
	// (-1: the guard is on the scan list), key is that value's hash, and
	// next is the table position of the next older guard in the same
	// bucket (-1 ends the chain).
	attr int
	key  uint64
	next int32
}

// GuardTable holds the active guards of one operator port and implements
// the expiration policy of §4.4: feedback state must not accumulate, so a
// guard is released as soon as embedded punctuation covers its pattern
// (the stream has promised the subset will never appear again, making the
// guard moot).
//
// Guards are kept in installation order and indexed by value: a guard
// with a usable Eq predicate is filed under its first such attribute in a
// bucket keyed by the value's hash; every other guard (ranges, In-sets,
// Null) sits on a scan list. Suppress, Install and Covers consult only the
// buckets a pattern or tuple can reach plus the scan list, so their cost
// follows the bucket size, not the table size. The index changes no
// result: two different Eq values on one attribute never imply or match
// each other, so every guard it skips is provably unrelated (DESIGN §3,
// "Guard tables").
//
// GuardTable is not safe for concurrent use; each operator owns its tables
// and is single-goroutine by construction.
type GuardTable struct {
	// guards holds the installed guards in installation order, with
	// released slots (compiled == nil) left in place until compaction.
	guards []Guard
	// live counts installed guards; dead counts released slots.
	live, dead int
	// index[a] files the guards whose first indexable Eq is on attribute a.
	index []attrIndex
	// scan holds, ascending, the positions of guards with no indexable Eq;
	// it may name released slots until the next compaction.
	scan []int32
	// cand is scratch for related and compact.
	cand   []int32
	scheme *punct.Scheme
	// merged counts guards dropped because a newer guard subsumed them.
	merged int
	// expired counts guards released by embedded punctuation.
	expired int
	// hits counts tuples suppressed by this table.
	hits int64
}

// attrIndex is the per-attribute part of the guard index.
type attrIndex struct {
	// heads maps a value hash to the position of the newest guard in that
	// bucket; older ones chain through Guard.next.
	heads map[uint64]int32
	// n counts the guards filed under the attribute.
	n int
}

// NewGuardTable creates an empty table for streams of the given arity.
func NewGuardTable(arity int) *GuardTable {
	return &GuardTable{scheme: punct.NewScheme(arity)}
}

// Install adds a guard for the feedback's pattern. Guards subsumed by the
// new pattern are dropped; if an existing guard strictly subsumes the new
// one, the table is unchanged. Returns whether the table changed.
func (g *GuardTable) Install(f Feedback) bool {
	p := f.Pattern
	// Decide before mutating: collect the guards p subsumes, and give up
	// untouched if some guard already covers p.
	cand := g.related(p, false)
	drop := cand[:0]
	for _, i := range cand {
		old := g.guards[i].Pattern
		if old.Implies(p) {
			drop = append(drop, i) // old guard is redundant under the new one
		} else if p.Implies(old) {
			return false
		}
	}
	for _, i := range drop {
		g.release(int(i))
	}
	g.merged += len(drop)

	// File the guard under its first Eq whose value's equals all hash
	// alike; Eq(Null) matches nothing and goes to the scan list too.
	gd := Guard{Pattern: p, Source: f, compiled: p.Compile(stream.Schema{}), attr: -1}
	for a := 0; a < p.Arity(); a++ {
		if pr := p.Pred(a); pr.Op == punct.EQ && pr.Val.Kind != stream.KindNull && pr.Val.HashExact() {
			gd.attr, gd.key = a, pr.Val.Hash()
			break
		}
	}
	g.guards = append(g.guards, gd)
	g.live++
	g.link(len(g.guards) - 1)
	if g.dead > g.live {
		g.compact()
	}
	return true
}

// Suppress reports whether the tuple matches any active guard (and should
// be dropped by the caller). The probe runs against the guards' compiled
// patterns without copying or allocating.
//
//pace:hotpath
func (g *GuardTable) Suppress(t stream.Tuple) bool {
	// Empty-table fast path, kept trivial so the call inlines: with no
	// feedback installed the hot path pays one count check, no call.
	if g.live == 0 {
		return false
	}
	return g.suppressProbe(t)
}

// suppressProbe checks the one bucket per filed attribute that the tuple's
// value there selects, then the scan list.
//
//pace:hotpath
func (g *GuardTable) suppressProbe(t stream.Tuple) bool {
	for a := range g.index {
		ix := &g.index[a]
		if ix.n == 0 || a >= len(t.Values) {
			continue
		}
		if i, ok := ix.heads[t.Values[a].Hash()]; ok {
			for ; i >= 0; i = g.guards[i].next {
				if g.guards[i].compiled.Matches(t) {
					g.hits++
					return true
				}
			}
		}
	}
	for _, i := range g.scan {
		if c := g.guards[i].compiled; c != nil && c.Matches(t) {
			g.hits++
			return true
		}
	}
	return false
}

// Covers reports whether some active guard's pattern is implied by p, so
// every tuple p describes is already suppressed. It consults the index
// like Install and does not allocate once the table's scratch has grown.
func (g *GuardTable) Covers(p punct.Pattern) bool {
	for _, i := range g.related(p, true) {
		if p.Implies(g.guards[i].Pattern) {
			return true
		}
	}
	return false
}

// related fills g.cand with the positions of the live guards that may
// stand in an implication with p: in either direction, or with covers
// set, only those p may imply. A guard filed under attribute a with Eq(w)
// is left out only when p's predicate on a rules the implication out:
// Eq(v) implies or is implied by Eq(w) only if v Equals w, an In-set
// implies Eq(w) only if every member Equals w, and no other predicate
// implies an Eq. Values Equal to w hash to w's bucket.
func (g *GuardTable) related(p punct.Pattern, covers bool) []int32 {
	cand := g.cand[:0]
	for _, i := range g.scan {
		if g.guards[i].compiled != nil {
			cand = append(cand, i)
		}
	}
	for a := range g.index {
		ix := &g.index[a]
		if ix.n == 0 || a >= p.Arity() {
			continue // guards of another arity relate to nothing in p
		}
		pr := p.Pred(a)
		var v stream.Value
		switch {
		case pr.Op == punct.EQ:
			v = pr.Val
		case covers && pr.Op == punct.In && len(pr.Set) > 0:
			v = pr.Set[0]
		case covers && pr.Op != punct.In:
			continue
		default:
			for i := range g.guards {
				if gd := &g.guards[i]; gd.compiled != nil && gd.attr == a {
					cand = append(cand, int32(i))
				}
			}
			continue
		}
		if i, ok := ix.heads[v.Hash()]; ok {
			for ; i >= 0; i = g.guards[i].next {
				cand = append(cand, i)
			}
		}
	}
	g.cand = cand
	return cand
}

// link files the guard at position i, the newest in the table's order,
// under its attribute's bucket or on the scan list.
func (g *GuardTable) link(i int) {
	gd := &g.guards[i]
	gd.next = -1
	if gd.attr < 0 {
		g.scan = append(g.scan, int32(i))
		return
	}
	for len(g.index) <= gd.attr {
		g.index = append(g.index, attrIndex{})
	}
	ix := &g.index[gd.attr]
	if ix.heads == nil {
		ix.heads = make(map[uint64]int32)
	}
	if head, ok := ix.heads[gd.key]; ok {
		gd.next = head
	}
	ix.heads[gd.key] = int32(i)
	ix.n++
}

// release empties the slot of the guard at position i. A filed guard
// leaves its bucket at once, so a bucket never holds released guards; the
// scan list drops its entry at the next compaction.
func (g *GuardTable) release(i int) {
	gd := &g.guards[i]
	if gd.attr >= 0 {
		ix := &g.index[gd.attr]
		ix.n--
		if head := ix.heads[gd.key]; head == int32(i) {
			if gd.next < 0 {
				delete(ix.heads, gd.key)
			} else {
				ix.heads[gd.key] = gd.next
			}
		} else {
			for j := head; ; j = g.guards[j].next {
				if g.guards[j].next == int32(i) {
					g.guards[j].next = gd.next
					break
				}
			}
		}
	}
	*gd = Guard{}
	g.live--
	g.dead++
}

// compact removes released slots, keeping installation order, and
// renumbers the index in place: chains point only to older positions,
// and a bucket's head is its newest guard, so one ascending pass can
// remap every link.
func (g *GuardTable) compact() {
	remap := g.cand[:0] // old position → new position, -1 if released
	kept := 0
	for i := range g.guards {
		gd := g.guards[i]
		if gd.compiled == nil {
			remap = append(remap, -1)
			continue
		}
		remap = append(remap, int32(kept))
		if gd.next >= 0 {
			gd.next = remap[gd.next]
		}
		if gd.attr >= 0 {
			if heads := g.index[gd.attr].heads; heads[gd.key] == int32(i) {
				heads[gd.key] = int32(kept)
			}
		}
		g.guards[kept] = gd
		kept++
	}
	clear(g.guards[kept:])
	g.guards = g.guards[:kept]
	scan := g.scan[:0]
	for _, i := range g.scan {
		if remap[i] >= 0 {
			scan = append(scan, remap[i])
		}
	}
	g.scan = scan
	g.cand = remap
	g.dead = 0
}

// ObservePunct folds embedded punctuation into the expiration tracker and
// releases any guard whose pattern is now covered: the stream itself
// guarantees those tuples are gone, so the guard holds no information.
// Returns the number of guards released.
func (g *GuardTable) ObservePunct(e punct.Embedded) int {
	g.scheme.Observe(e)
	released := 0
	for i := range g.guards {
		if gd := &g.guards[i]; gd.compiled != nil && g.scheme.CoversPattern(gd.Pattern) {
			g.release(i)
			released++
		}
	}
	if released > 0 {
		g.compact()
	}
	g.expired += released
	return released
}

// Supportable applies the §4.4 admissibility test to a candidate feedback
// pattern using the punctuation observed so far on this port: every bound
// attribute must be delimited. Operators may consult this before
// installing state-bearing responses; installing a guard for
// unsupportable feedback is still *correct*, but risks unbounded predicate
// accumulation, so callers typically fall back to the null response.
func (g *GuardTable) Supportable(p punct.Pattern) bool { return g.scheme.Supportable(p) }

// Active returns the number of live guards.
func (g *GuardTable) Active() int { return g.live }

// Guards returns a copy of the live guards in installation order
// (diagnostics and snapshots).
func (g *GuardTable) Guards() []Guard {
	if g.live == 0 {
		return nil
	}
	out := make([]Guard, 0, g.live)
	for _, gd := range g.guards {
		if gd.compiled != nil {
			out = append(out, Guard{Pattern: gd.Pattern, Source: gd.Source, compiled: gd.compiled})
		}
	}
	return out
}

// Stats reports suppression hits, merges, and expirations.
func (g *GuardTable) Stats() (hits int64, merged, expired int) {
	return g.hits, g.merged, g.expired
}
