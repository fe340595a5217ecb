package sim

import (
	"fmt"
	"sync/atomic"
)

// Event is a callback scheduled to run at a specific virtual time.
type Event func(now Time)

// ArgEvent is an Event that carries a caller-supplied argument. Packet
// substrates prebind one ArgEvent per code path and pass the packet as the
// argument, instead of allocating a fresh closure per packet.
type ArgEvent func(now Time, arg any)

// scheduled is a heap entry, stored by value: the event queue owns its
// entries in one contiguous slice, so steady-state scheduling recycles
// slots instead of allocating per event. Exactly one of fn and argFn is
// set. seq breaks ties so that events scheduled for the same instant run
// in FIFO order, keeping the simulation deterministic — and because
// (at, seq) is a strict total order, dispatch order is independent of the
// heap's internal layout. cancel is the entry's handle: a Timer's, or a
// Lane's for the lane's head entry.
type scheduled struct {
	at     Time
	seq    uint64
	fn     Event
	argFn  ArgEvent
	arg    any
	cancel *Timer
}

func lessScheduled(a, b *scheduled) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Timer is a handle for a cancellable scheduled event. A Timer can be
// reused across arm/cancel cycles with Reset, which is how the transport
// hot path (RTO re-arm on every ACK, pacing on every send) avoids
// allocating a handle per arm. idx is the entry's index in the event
// queue, -1 when idle (fired, stopped, or never armed). A Lane tracks its
// head entry through the same handle, with lane set; that handle is never
// exposed, so it is never stopped.
type Timer struct {
	engine *Engine
	idx    int
	lane   *Lane
}

// NewTimer returns an idle reusable timer. Arm it with Reset.
func (e *Engine) NewTimer() *Timer {
	return &Timer{engine: e, idx: -1}
}

// Reset arms the timer to run fn after d, cancelling any pending arm
// first. It is the allocation-free counterpart of AfterTimer.
func (t *Timer) Reset(d Time, fn Event) {
	t.Stop()
	if d < 0 {
		d = 0
	}
	e := t.engine
	e.seq++
	e.push(scheduled{at: e.now + d, seq: e.seq, fn: fn, cancel: t})
}

// Stop cancels the timer if it has not fired yet. It reports whether the
// timer was still pending.
func (t *Timer) Stop() bool {
	if t == nil || t.idx < 0 {
		return false
	}
	t.engine.remove(t.idx)
	t.idx = -1
	return true
}

// Pending reports whether the timer is still scheduled to fire.
func (t *Timer) Pending() bool { return t != nil && t.idx >= 0 }

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; a simulation is a deterministic sequential program.
//
// The event queue is a 4-ary min-heap ordered by (at, seq), stored by
// value in one slice. 4-ary beats binary here: sift-down visits 4 children
// per level but the tree is half as deep, and the children share cache
// lines — dispatch in a busy experiment (thousands of pending events) is
// dominated by sift-down cache misses, not comparisons.
type Engine struct {
	now    Time
	seq    uint64
	events []scheduled
	// backlog counts lane entries waiting behind their lane's head (see
	// Lane); they are pending but not in events.
	backlog int
	// Ran counts executed events, useful for budget checks in tests.
	ran uint64
	// abort, when set, is polled by the run loops (see SetAbort).
	abort *atomic.Bool
}

// Aborted is the panic value the run loops raise when an external
// supervisor trips the abort flag installed with SetAbort. It carries
// the virtual time the run had reached. Callers that arm an abort flag
// must be prepared to recover it (the watchdog's trial panic barrier
// converts it into a typed reap failure).
type Aborted struct {
	// At is the virtual time at which the abort was observed.
	At Time
}

// Error makes Aborted usable as an error value after recovery.
func (a Aborted) Error() string {
	return fmt.Sprintf("sim: run aborted at %v", a.At)
}

// SetAbort installs an externally-owned abort flag. The run loops poll
// it every 1024 dispatched events — cheap enough to leave the hot path
// allocation- and contention-free, tight enough that any *eventful*
// runaway simulation stops promptly — and raise Aborted when it reads
// true. A hard wedge inside a single event callback cannot be
// interrupted this way; supervisors must abandon the goroutine instead
// (see the core reaper). Passing nil removes the flag.
func (e *Engine) SetAbort(flag *atomic.Bool) { e.abort = flag }

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// EventsRun reports the number of events executed so far.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending reports the number of events waiting in the queue, lane
// backlogs included.
func (e *Engine) Pending() int { return len(e.events) + e.backlog }

// push appends an entry and restores the heap property.
func (e *Engine) push(s scheduled) {
	e.events = append(e.events, s)
	e.siftUp(len(e.events) - 1)
}

// siftUp moves the entry at i toward the root until ordered, keeping
// Timer indices in sync. The entry is held in a register and written once
// into its final slot (hole-based sift), halving the copies of a
// swap-based loop.
func (e *Engine) siftUp(i int) {
	h := e.events
	s := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !lessScheduled(&s, &h[p]) {
			break
		}
		h[i] = h[p]
		if h[i].cancel != nil {
			h[i].cancel.idx = i
		}
		i = p
	}
	h[i] = s
	if s.cancel != nil {
		s.cancel.idx = i
	}
}

// siftDown moves the entry at i toward the leaves until ordered.
func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	s := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if lessScheduled(&h[j], &h[m]) {
				m = j
			}
		}
		if !lessScheduled(&h[m], &s) {
			break
		}
		h[i] = h[m]
		if h[i].cancel != nil {
			h[i].cancel.idx = i
		}
		i = m
	}
	h[i] = s
	if s.cancel != nil {
		s.cancel.idx = i
	}
}

// popRoot removes and returns the minimum entry. The vacated tail slot is
// zeroed so the slice does not retain callback or argument references.
func (e *Engine) popRoot() scheduled {
	h := e.events
	s := h[0]
	n := len(h) - 1
	if n > 0 {
		h[0] = h[n]
	}
	h[n] = scheduled{}
	e.events = h[:n]
	if n > 1 {
		e.siftDown(0)
	} else if n == 1 && h[0].cancel != nil {
		h[0].cancel.idx = 0
	}
	return s
}

// remove deletes the entry at i (timer cancellation), moving the tail
// entry into the gap and re-sifting it in whichever direction restores
// order. The vacated tail slot is zeroed so no references leak.
func (e *Engine) remove(i int) {
	h := e.events
	n := len(h) - 1
	if i != n {
		moved := h[n]
		h[i] = moved
		h[n] = scheduled{}
		e.events = h[:n]
		e.siftDown(i)
		if e.events[i].seq == moved.seq {
			e.siftUp(i)
		}
	} else {
		h[n] = scheduled{}
		e.events = h[:n]
	}
}

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// (before the current time) panics: it always indicates a logic bug in a
// substrate, and silently reordering events would corrupt causality.
func (e *Engine) Schedule(at Time, fn Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	e.push(scheduled{at: at, seq: e.seq, fn: fn})
}

// ScheduleArg runs fn(at, arg) at absolute virtual time at. Unlike
// wrapping arg in a closure, this path is allocation-free when arg is a
// pointer: the hot substrates prebind one ArgEvent per code path and
// thread the packet through as the argument.
func (e *Engine) ScheduleArg(at Time, fn ArgEvent, arg any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	e.push(scheduled{at: at, seq: e.seq, argFn: fn, arg: arg})
}

// After runs fn after delay d (relative scheduling).
func (e *Engine) After(d Time, fn Event) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, fn)
}

// AfterArg runs fn(now, arg) after delay d. See ScheduleArg.
func (e *Engine) AfterArg(d Time, fn ArgEvent, arg any) {
	if d < 0 {
		d = 0
	}
	e.ScheduleArg(e.now+d, fn, arg)
}

// AfterTimer schedules fn after d and returns a cancellable handle. Code
// that arms repeatedly should hold one NewTimer and Reset it instead.
func (e *Engine) AfterTimer(d Time, fn Event) *Timer {
	t := e.NewTimer()
	t.Reset(d, fn)
	return t
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	if t := e.events[0].cancel; t != nil && t.lane != nil && t.lane.n > 0 {
		e.stepLane(t.lane)
		return true
	}
	s := e.popRoot()
	if s.cancel != nil {
		s.cancel.idx = -1
	}
	e.now = s.at
	e.ran++
	if s.argFn != nil {
		s.argFn(e.now, s.arg)
	} else {
		s.fn(e.now)
	}
	return true
}

// stepLane is Step for a root that is the head of lane l with a backlog:
// the head's successor takes the root slot directly, one sift instead of
// a pop and a push.
func (e *Engine) stepLane(l *Lane) {
	s := e.events[0]
	e.events[0] = l.next()
	e.siftDown(0)
	e.now = s.at
	e.ran++
	s.argFn(e.now, s.arg)
}

// RunUntil executes events until the clock would pass deadline or the
// queue drains. The clock is left at min(deadline, last event time); events
// scheduled after deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.events) > 0 && e.events[0].at <= deadline {
		if e.abort != nil && e.ran&1023 == 0 && e.abort.Load() {
			panic(Aborted{At: e.now})
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run drains the event queue completely. Most experiments should prefer
// RunUntil with an explicit horizon; Run exists for self-terminating
// workloads such as fixed-size file downloads in tests.
func (e *Engine) Run() {
	for len(e.events) > 0 {
		if e.abort != nil && e.ran&1023 == 0 && e.abort.Load() {
			panic(Aborted{At: e.now})
		}
		e.Step()
	}
}
