package exec

import (
	"context"
	"errors"
	"testing"

	"repro/internal/snapshot"
)

// TestRestoreLatestDegrades: a corrupted blob at the newest epoch
// must not fail the restore — the graph falls back to the newest intact
// older epoch (surfacing the typed skip), truncates the corrupt tail so
// resumed epoch numbering cannot collide with it, and the recovered run
// still produces exactly the uninterrupted result.
func TestRestoreLatestDegrades(t *testing.T) {
	const total = 400
	build := func(open bool) (*Graph, *limitedSource, *Collector) {
		src := &limitedSource{schema: incrSchema, total: total}
		if open {
			src.limit.Store(total)
		}
		sink := NewCollector("sink", incrSchema)
		g := NewGraph()
		id := g.AddSource(src)
		g.Add(sink, From(id))
		return g, src, sink
	}

	// Uninterrupted reference.
	gRef, _, sinkRef := build(true)
	if err := gRef.Run(); err != nil {
		t.Fatal(err)
	}
	want := sinkRef.Tuples()

	// Checkpoint a base and two deltas, then die.
	g1, src1, _ := build(false)
	runErr := make(chan error, 1)
	go func() { runErr <- g1.Run() }()
	chain := snapshot.NewChain(snapshot.NewMemory())
	ctx := context.Background()
	var epochs []int64
	for i, stop := range []int64{250, 280, 310} {
		src1.limit.Store(stop)
		src1.waitPos(t, stop)
		var (
			snap *snapshot.Snapshot
			err  error
		)
		if i == 0 {
			snap, err = g1.Checkpoint(ctx, snapshot.CaptureFull)
		} else {
			snap, err = g1.Checkpoint(ctx, snapshot.CaptureDelta)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chain.Put(snap); err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, snap.Epoch)
	}
	g1.Kill()
	if err := <-runErr; !errors.Is(err, ErrKilled) {
		t.Fatalf("killed run returned %v", err)
	}

	// Bit-flip the newest delta in storage.
	id := snapshot.IDFor(epochs[2], epochs[1])
	blob, err := chain.Backend().Get(id)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x10
	if err := chain.Backend().Put(id, blob); err != nil {
		t.Fatal(err)
	}

	// Restore must degrade to the middle epoch, typed and truncated.
	g2, _, sink2 := build(true)
	ok, skipped, err := g2.RestoreLatest(chain)
	if err != nil || !ok {
		t.Fatalf("RestoreLatest: ok=%v err=%v", ok, err)
	}
	if len(skipped) != 1 || skipped[0].Epoch != epochs[2] || !errors.Is(skipped[0].Err, snapshot.ErrCorruptSnapshot) {
		t.Fatalf("skipped = %+v, want one typed skip of epoch %d", skipped, epochs[2])
	}
	if latest, okL, err := chain.LatestEpoch(); err != nil || !okL || latest != epochs[1] {
		t.Fatalf("corrupt tail not truncated: latest = %d ok=%v err=%v, want %d", latest, okL, err, epochs[1])
	}
	if err := g2.Run(); err != nil {
		t.Fatal(err)
	}
	got := sink2.Tuples()
	if len(got) != len(want) {
		t.Fatalf("recovered run recorded %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) || got[i].Seq != want[i].Seq {
			t.Fatalf("tuple %d diverged: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestRestoreCommittedDegrades: a corrupt coordinator-side chain at the
// newest committed epoch must walk the restore back to the previous
// commit, truncating both the manifest log and the local chain so the
// resumed run can re-commit the lost epochs.
func TestRestoreCommittedDegrades(t *testing.T) {
	const total = 400
	build := func(open bool) (*Graph, *limitedSource, *Collector) {
		src := &limitedSource{schema: incrSchema, total: total}
		if open {
			src.limit.Store(total)
		}
		sink := NewCollector("sink", incrSchema)
		g := NewGraph()
		id := g.AddSource(src)
		g.Add(sink, From(id))
		return g, src, sink
	}

	// Run a single-part "distributed" plan far enough to commit two cuts.
	g1, src1, _ := build(false)
	runErr := make(chan error, 1)
	go func() { runErr <- g1.Run() }()
	backend := snapshot.NewMemory()
	chain := snapshot.NewChain(backend)
	log := snapshot.NewDistLog(backend)
	ctx := context.Background()
	var epochs []int64
	for i, stop := range []int64{250, 300} {
		src1.limit.Store(stop)
		src1.waitPos(t, stop)
		var (
			snap *snapshot.Snapshot
			err  error
		)
		if i == 0 {
			snap, err = g1.Checkpoint(ctx, snapshot.CaptureFull)
		} else {
			snap, err = g1.Checkpoint(ctx, snapshot.CaptureDelta)
		}
		if err != nil {
			t.Fatal(err)
		}
		id, err := chain.Put(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Commit(&snapshot.DistManifest{Epoch: snap.Epoch,
			Parts: []snapshot.DistPart{{Part: "coord", Epoch: snap.Epoch, Chain: id}}}); err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, snap.Epoch)
	}
	g1.Kill()
	if err := <-runErr; !errors.Is(err, ErrKilled) {
		t.Fatalf("killed run returned %v", err)
	}

	// Damage the newest committed epoch's chain blob.
	id := snapshot.IDFor(epochs[1], epochs[0])
	blob, err := backend.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/3] ^= 0x04
	if err := backend.Put(id, blob); err != nil {
		t.Fatal(err)
	}

	g2, _, _ := build(true)
	dc := NewDistCoordinator(g2, "coord", chain, log)
	ok, err := dc.RestoreCommitted()
	if err != nil || !ok {
		t.Fatalf("RestoreCommitted: ok=%v err=%v", ok, err)
	}
	if dc.CommittedEpoch() != epochs[0] {
		t.Fatalf("restored commit = %d, want fallback to %d", dc.CommittedEpoch(), epochs[0])
	}
	deg := dc.Degraded()
	if len(deg) != 1 || deg[0].Epoch != epochs[1] || !errors.Is(deg[0].Err, snapshot.ErrCorruptSnapshot) {
		t.Fatalf("degraded = %+v, want one typed skip of epoch %d", deg, epochs[1])
	}
	// Both the manifest log and the chain must have rewound, so the epoch
	// can be committed again by the resumed run.
	if m, okL, err := log.Latest(); err != nil || !okL || m.Epoch != epochs[0] {
		t.Fatalf("log head = %+v ok=%v err=%v, want %d", m, okL, err, epochs[0])
	}
	if latest, okL, err := chain.LatestEpoch(); err != nil || !okL || latest != epochs[0] {
		t.Fatalf("chain latest = %d ok=%v err=%v, want %d", latest, okL, err, epochs[0])
	}
	if err := log.Commit(&snapshot.DistManifest{Epoch: epochs[1],
		Parts: []snapshot.DistPart{{Part: "coord", Epoch: epochs[1], Chain: id}}}); err != nil {
		t.Fatalf("re-commit of degraded epoch: %v", err)
	}
}
