package snapshot

// Stater is the optional interface operators and sources implement to
// participate in checkpoints (DESIGN.md §6.2, §7). The cut is two-phase:
//
//   - phase 1 — CaptureState — runs on the operator's own goroutine at its
//     consistent cut (barrier alignment for operators, between Next calls
//     for sources) and only takes a consistent *view* of the state: cloned
//     accumulator structs, copied guard lists, a drained changelog. The
//     view must not alias any state the operator will mutate after the
//     barrier releases; the cost is O(view), which for delta captures is
//     O(changes since the previous capture).
//   - phase 2 — Capture.Encode — runs on a background goroutine after the
//     barrier has released (the operator is already processing post-barrier
//     tuples) and serializes the view.
//
// LoadState is called after Open, before any data, on a freshly built plan.
// Capture owned mutable state (accumulators, guards, replay positions),
// never in-flight tuples or anything derived from schema or configuration.
type Stater interface {
	CaptureState(mode CaptureMode) (Capture, error)
	LoadState(dec *Decoder) error
}

// CaptureMode selects what phase 1 captures.
type CaptureMode int

const (
	// CaptureFull captures the operator's entire state (a base snapshot).
	// It also resets the operator's changelog: the next delta capture is
	// relative to this cut.
	CaptureFull CaptureMode = iota
	// CaptureDelta captures only the state changed since the previous
	// capture (full or delta) and drains the changelog. An operator with no
	// capture history yet answers with a full capture instead (Delta=false
	// on the returned Capture) — the coordinator never has to know whether
	// an operator can honour a delta request.
	CaptureDelta
)

// Capture is a phase-1 result: an immutable view of one operator's state
// plus the encoder that serializes it.
type Capture struct {
	// Delta marks the blob as a delta relative to the operator's previous
	// capture; restore applies it with DeltaStater.ApplyDelta on top of the
	// already-loaded predecessor state. A full blob (Delta=false) replaces:
	// restore calls LoadState, discarding anything staged before it.
	Delta bool
	// Encode serializes the captured view (phase 2). It runs on a
	// background goroutine after the barrier has released and therefore
	// must not read anything the live operator mutates — only the view
	// captured in phase 1.
	Encode func(*Encoder) error
}

// DeltaStater is implemented by operators whose captures can be deltas;
// ApplyDelta merges one delta blob into already-loaded state during
// restore. It is only ever called after LoadState (or a previous
// ApplyDelta) on the same operator.
type DeltaStater interface {
	ApplyDelta(dec *Decoder) error
}

// EncodeCapture runs both phases of a full capture back to back. A capture
// without an Encode (a Stater with nothing to save) writes nothing, as at a
// checkpoint.
func EncodeCapture(st Stater, enc *Encoder) error {
	c, err := st.CaptureState(CaptureFull)
	if err != nil || c.Encode == nil {
		return err
	}
	return c.Encode(enc)
}
