package sim

import "fmt"

// Lane is a FIFO delay line on an engine: a stream of ArgEvents, all
// running the same callback, whose deadlines arrive in non-decreasing
// order — packets on one propagation hop, say. Only the lane's oldest
// entry sits in the engine's heap; the rest wait in the lane's ring
// buffer, so a hop with thousands of packets in flight costs the heap one
// entry instead of thousands.
//
// Dispatch order is exactly what ScheduleArg would give. Each push takes
// its seq from the engine counter when it is made, as ScheduleArg does.
// Entries of a lane are ordered by (at, seq) because at is non-decreasing
// and seq increasing, so the lane's head is its least entry, and with
// every lane head in the heap the heap minimum is the global minimum.
// When the head runs, the next entry enters the heap with the seq it was
// given at push time. A push earlier than the lane's newest entry would
// break the lane's order; it becomes an ordinary heap entry instead, with
// its own seq, which is exactly where ScheduleArg would have put it.
//
// Lane entries cannot be cancelled.
type Lane struct {
	e  *Engine
	fn ArgEvent
	// head tracks the lane's head entry in the heap: head.Pending() while
	// the lane holds any entry. tail is the deadline of its newest entry.
	head Timer
	tail Time
	// The backlog is a power-of-two ring: n entries from buf[first].
	buf      []laneEntry
	first, n int
}

// laneEntry is a backlogged lane push: its deadline, the seq it drew at
// push time, and its argument.
type laneEntry struct {
	at  Time
	seq uint64
	arg any
}

// NewLane returns an empty lane whose entries run fn(at, arg).
func (e *Engine) NewLane(fn ArgEvent) *Lane {
	l := &Lane{e: e, fn: fn}
	l.head = Timer{engine: e, idx: -1, lane: l}
	return l
}

// Schedule runs the lane's callback with arg at absolute time at. Like
// Engine.ScheduleArg, scheduling in the past panics.
func (l *Lane) Schedule(at Time, arg any) {
	e := l.e
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	switch {
	case l.head.idx < 0:
		// Empty lane. Its newest entry has already run, so tail <= now
		// <= at and the order of the lane holds.
		l.tail = at
		e.push(scheduled{at: at, seq: e.seq, argFn: l.fn, arg: arg, cancel: &l.head})
	case at < l.tail:
		// Out of order: a plain entry, the one ScheduleArg would make.
		e.push(scheduled{at: at, seq: e.seq, argFn: l.fn, arg: arg})
	default:
		l.tail = at
		if l.n == len(l.buf) {
			l.grow()
		}
		l.buf[(l.first+l.n)&(len(l.buf)-1)] = laneEntry{at: at, seq: e.seq, arg: arg}
		l.n++
		e.backlog++
	}
}

// After runs the lane's callback with arg after delay d. See Schedule.
func (l *Lane) After(d Time, arg any) {
	if d < 0 {
		d = 0
	}
	l.Schedule(l.e.now+d, arg)
}

// next removes the oldest backlogged entry and returns it as the lane's
// new head entry. Engine.Step calls it when the current head runs, so the
// successor enters the heap with the seq it drew at push time.
func (l *Lane) next() scheduled {
	x := &l.buf[l.first]
	s := scheduled{at: x.at, seq: x.seq, argFn: l.fn, arg: x.arg, cancel: &l.head}
	*x = laneEntry{}
	l.first = (l.first + 1) & (len(l.buf) - 1)
	l.n--
	l.e.backlog--
	return s
}

// grow doubles the ring, unrolling it to start at index 0.
func (l *Lane) grow() {
	size := 2 * len(l.buf)
	if size == 0 {
		size = 16
	}
	buf := make([]laneEntry, size)
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.first+i)&(len(l.buf)-1)]
	}
	l.buf, l.first = buf, 0
}
