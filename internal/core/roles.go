package core

// The paper assigns operators three (non-exclusive) roles with respect to
// feedback (§1): producers discover processing opportunities and issue
// feedback; exploiters act on received feedback within their own logic;
// relayers map feedback through their schema transformation and pass it
// upstream. An operator may play all three. The interfaces below are
// implemented by operators in package op; the exec runtime uses them to
// decide how to route control messages.

// FeedbackSink receives feedback arriving from downstream. The emit
// callback lets the implementation relay (possibly transformed) feedback to
// a specific input port; implementations that only exploit never call it.
type FeedbackSink interface {
	// AcceptFeedback processes one feedback punctuation from downstream.
	// emit(input, f) forwards feedback to the operator's input number
	// `input`.
	AcceptFeedback(f Feedback, emit func(input int, f Feedback))
}

// Action enumerates the response vocabulary of §4.3, used by operator
// characterizations (Tables 1 and 2) and by response logs in tests.
type Action uint8

const (
	// ActNone is the null response (always correct for assumed feedback).
	ActNone Action = iota
	// ActGuardOutput installs an output guard: matching result tuples are
	// not emitted.
	ActGuardOutput
	// ActGuardInput installs an input guard: matching input tuples are
	// not processed.
	ActGuardInput
	// ActPurgeState removes matching entries from operator state
	// (hash-table groups, join state, pending queues).
	ActPurgeState
	// ActPropagate relays (a projection of) the feedback upstream.
	ActPropagate
	// ActPrioritize reorders processing in favour of the subset
	// (desired feedback).
	ActPrioritize
	// ActUnblock emits partial results for the subset immediately
	// (demanded feedback).
	ActUnblock
	// ActCloseWindows finalizes open windows whose partial aggregate
	// already satisfies the feedback predicate (MAX example in §3.5).
	ActCloseWindows
)

var actionNames = [...]string{
	ActNone:         "none",
	ActGuardOutput:  "guard-output",
	ActGuardInput:   "guard-input",
	ActPurgeState:   "purge-state",
	ActPropagate:    "propagate",
	ActPrioritize:   "prioritize",
	ActUnblock:      "unblock",
	ActCloseWindows: "close-windows",
}

// String names the action.
func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return "action(?)"
}

// Response records what an operator did with one feedback punctuation.
// Operators append responses to a ResponseLog that tests and the Tables
// 1/2 demonstrator inspect.
type Response struct {
	Feedback Feedback
	Actions  []Action
	// Propagated holds the feedback actually relayed per input port
	// (empty slot = not propagated to that input).
	Propagated []*Feedback
	// Note carries a human-readable explanation (e.g. refusal reasons).
	Note string
}

// Did reports whether the response includes the given action.
func (r Response) Did(a Action) bool {
	for _, x := range r.Actions {
		if x == a {
			return true
		}
	}
	return false
}

// ResponseLogCap is how many responses a ResponseLog keeps.
const ResponseLogCap = 64

// ResponseLog keeps an operator's newest ResponseLogCap feedback responses
// and a count of all of them. Feedback state must not accumulate (§4.4):
// a plan that answers feedback per key and window would otherwise hold
// every response it ever made.
type ResponseLog struct {
	ring  []Response
	total int64
}

// Add records one response, evicting the oldest kept one when full.
func (l *ResponseLog) Add(r Response) {
	if len(l.ring) < ResponseLogCap {
		l.ring = append(l.ring, r)
	} else {
		l.ring[l.total%ResponseLogCap] = r
	}
	l.total++
}

// Responses returns a copy of the kept responses, oldest first; nil when
// none were recorded.
func (l *ResponseLog) Responses() []Response {
	if len(l.ring) == 0 {
		return nil
	}
	start := int(l.total % int64(len(l.ring)))
	out := make([]Response, 0, len(l.ring))
	out = append(out, l.ring[start:]...)
	return append(out, l.ring[:start]...)
}

// Total returns how many responses were ever recorded.
func (l *ResponseLog) Total() int64 { return l.total }
