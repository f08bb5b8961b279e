package exec

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/snapshot"
)

// CheckpointPolicy configures RunCheckpointed's periodic checkpoint loop.
type CheckpointPolicy struct {
	// Interval between checkpoint triggers (default 1s).
	Interval time.Duration
	// FullEvery makes every k-th checkpoint a full snapshot; the ones in
	// between are incremental deltas chained off it. 0 or 1 means every
	// checkpoint is full (no deltas).
	FullEvery int
	// Retain keeps only the newest N epochs (plus whatever they need to
	// restore) after each checkpoint; 0 keeps everything.
	Retain int
	// CompactEvery packs the newest base+delta chain into one
	// self-contained snapshot every k checkpoints; 0 never compacts.
	CompactEvery int
}

// RunCheckpointed runs the plan under periodic checkpoints persisted to
// the chain. The stream never waits on a checkpoint beyond its capture
// phase; persistence failures do not stop the plan (they surface in
// CheckpointStatuses and through the returned maintenance error). It
// returns Run's error; the second return aggregates the first checkpoint,
// retention, or compaction failure, if any.
func (g *Graph) RunCheckpointed(chain *snapshot.Chain, p CheckpointPolicy) (runErr, chkErr error) {
	return g.checkpointLoop(chain, p, func(epoch int64, count int, stop <-chan struct{}, noteErr func(error)) {
		if st, ok := g.CheckpointStatus(epoch); ok && st.Err != nil {
			noteErr(st.Err)
			return
		}
		g.maintainChain(chain, p, epoch, count, noteErr)
	})
}

// maintainChain runs a cycle's compaction and retention for one
// successfully persisted epoch.
func (g *Graph) maintainChain(chain *snapshot.Chain, p CheckpointPolicy, epoch int64, count int, noteErr func(error)) {
	if p.CompactEvery > 0 && count%p.CompactEvery == 0 {
		if err := chain.Compact(); err != nil {
			noteErr(fmt.Errorf("exec: compact after epoch %d: %w", epoch, err))
		}
	}
	if p.Retain > 0 {
		if err := chain.RetainFrom(epoch, p.Retain); err != nil {
			noteErr(fmt.Errorf("exec: retention after epoch %d: %w", epoch, err))
		}
	}
}

// checkpointLoop is the shared periodic driver behind Graph.RunCheckpointed
// and DistCoordinator.RunCheckpointed: run the plan while a ticker triggers
// one checkpoint per interval (full/delta per the policy's cadence) and
// hands each completed epoch to cycle — which verifies the outcome, runs
// any cross-process commit work, and performs maintenance. Trigger failures
// (not running yet, already stopping, one in flight) skip the tick. The
// returned chkErr is the first error any cycle noted.
func (g *Graph) checkpointLoop(chain *snapshot.Chain, p CheckpointPolicy, cycle func(epoch int64, count int, stop <-chan struct{}, noteErr func(error))) (runErr, chkErr error) {
	if p.Interval <= 0 {
		p.Interval = time.Second
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	noteErr := func(err error) {
		mu.Lock()
		if chkErr == nil {
			chkErr = err
		}
		mu.Unlock()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(p.Interval)
		defer tick.Stop()
		count := 0
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			mode := snapshot.CaptureDelta
			if p.FullEvery <= 1 || count%p.FullEvery == 0 {
				mode = snapshot.CaptureFull
			}
			c, err := g.trigger(0, mode, chain)
			if err != nil {
				continue
			}
			count++
			select {
			case <-c.done: // persisted (or failed) — safe to run the cycle
			case <-stop:
				return
			}
			cycle(c.epoch, count, stop, noteErr)
		}
	}()
	runErr = g.Run()
	close(stop)
	wg.Wait()
	g.WaitCheckpoints()
	mu.Lock()
	defer mu.Unlock()
	return runErr, chkErr
}
