package sim

import (
	"fmt"
	"testing"
)

// The lane oracle: a random program of schedules, lane pushes, timer
// re-arms and cancels, steps and RunUntil deadlines runs on two engines
// in lockstep. One engine routes lane pushes through Lanes; the
// reference engine turns every lane push into a plain ScheduleArg with
// the same callback. Both must dispatch the same (at, seq, callback)
// sequence and agree on Now, EventsRun and Pending after every step.

const (
	oracleLanes  = 3
	oracleTimers = 3
	// Callback identities in the dispatch log.
	cbPlain = 1
	cbArg   = 2
	cbLane  = 10 // + lane index
	cbTimer = 20 // + timer index
)

// dispatchRec is one dispatched event. seq is the engine seq the event
// drew when it was scheduled.
type dispatchRec struct {
	at  Time
	seq uint64
	cb  int
}

// laneHarness is one side of the oracle.
type laneHarness struct {
	e        *Engine
	useLanes bool
	lanes    [oracleLanes]*Lane
	laneFn   [oracleLanes]ArgEvent
	argFn    ArgEvent
	timers   [oracleTimers]*Timer
	// lastAt is the latest deadline pushed on each lane, the anchor for
	// in-order and out-of-order pushes.
	lastAt [oracleLanes]Time
	log    []dispatchRec

	// Coverage counters (lane side only).
	fallbacks   int
	maxBacklog  int
	maxLaneSize int
}

func newLaneHarness(useLanes bool) *laneHarness {
	h := &laneHarness{e: NewEngine(), useLanes: useLanes}
	for l := range h.lanes {
		cb := cbLane + l
		h.laneFn[l] = func(now Time, arg any) { h.fire(now, arg.(uint64), cb) }
		if useLanes {
			h.lanes[l] = h.e.NewLane(h.laneFn[l])
		}
	}
	h.argFn = func(now Time, arg any) { h.fire(now, arg.(uint64), cbArg) }
	for k := range h.timers {
		h.timers[k] = h.e.NewTimer()
	}
	return h
}

// fire logs a dispatch and, for some seqs, schedules follow-up work from
// inside the callback. The follow-up depends only on the seq and the
// clock, so both sides do the same thing while they agree.
func (h *laneHarness) fire(now Time, seq uint64, cb int) {
	h.log = append(h.log, dispatchRec{at: now, seq: seq, cb: cb})
	switch seq % 7 {
	case 0:
		h.pushLane(int(seq%oracleLanes), h.inOrderAt(int(seq%oracleLanes), Time(seq%3)))
	case 3:
		h.pushLane(int(seq%oracleLanes), now+Time(seq%4))
	case 5:
		h.resetTimer(int(seq%oracleTimers), Time(seq%5))
	}
}

// inOrderAt is a deadline at or after both the clock and lane l's latest
// push: d == 0 gives a same-instant tie with that push.
func (h *laneHarness) inOrderAt(l int, d Time) Time {
	at := h.e.Now()
	if h.lastAt[l] > at {
		at = h.lastAt[l]
	}
	return at + d
}

func (h *laneHarness) pushLane(l int, at Time) {
	if at > h.lastAt[l] {
		h.lastAt[l] = at
	}
	tok := h.e.seq + 1
	if !h.useLanes {
		h.e.ScheduleArg(at, h.laneFn[l], tok)
		return
	}
	ln := h.lanes[l]
	if ln.head.Pending() && at < ln.tail {
		h.fallbacks++
	}
	ln.Schedule(at, tok)
	if h.e.backlog > h.maxBacklog {
		h.maxBacklog = h.e.backlog
	}
	if ln.n > h.maxLaneSize {
		h.maxLaneSize = ln.n
	}
}

func (h *laneHarness) resetTimer(k int, d Time) {
	tok := h.e.seq + 1
	h.timers[k].Reset(d, func(now Time) { h.fire(now, tok, cbTimer+k) })
}

// exec interprets one op. Ops read their operands from b; missing bytes
// read as zero.
func (h *laneHarness) exec(op byte, a, b byte) {
	now := h.e.Now()
	d := Time(b % 16)
	switch op % 10 {
	case 0:
		tok := h.e.seq + 1
		h.e.Schedule(now+d, func(t Time) { h.fire(t, tok, cbPlain) })
	case 1:
		h.e.ScheduleArg(now+d, h.argFn, h.e.seq+1)
	case 2: // in order, possibly a tie with the lane's newest push
		h.pushLane(int(a)%oracleLanes, h.inOrderAt(int(a)%oracleLanes, d%4))
	case 3: // likely out of order: earlier than the lane's newest push
		h.pushLane(int(a)%oracleLanes, now+d%3)
	case 4: // same instant as the lane's newest push
		h.pushLane(int(a)%oracleLanes, h.inOrderAt(int(a)%oracleLanes, 0))
	case 5:
		h.resetTimer(int(a)%oracleTimers, d)
	case 6:
		h.timers[int(a)%oracleTimers].Stop()
	case 7:
		h.e.Step()
	case 8:
		h.e.RunUntil(now + d)
	case 9: // relative lane push
		l := int(a) % oracleLanes
		if h.useLanes {
			at := now + d
			if at > h.lastAt[l] {
				h.lastAt[l] = at
			}
			h.lanes[l].After(d, h.e.seq+1)
		} else {
			h.pushLane(l, now+d)
		}
	}
}

// compareHarnesses reports the first disagreement between the two sides.
// The logs agree up to from, checked by an earlier call.
func compareHarnesses(lane, ref *laneHarness, from int) error {
	if len(lane.log) != len(ref.log) {
		return fmt.Errorf("dispatched %d events, reference %d", len(lane.log), len(ref.log))
	}
	for i := from; i < len(lane.log); i++ {
		if lane.log[i] != ref.log[i] {
			return fmt.Errorf("dispatch %d: lane %+v, reference %+v", i, lane.log[i], ref.log[i])
		}
	}
	switch {
	case lane.e.Now() != ref.e.Now():
		return fmt.Errorf("Now %v, reference %v", lane.e.Now(), ref.e.Now())
	case lane.e.EventsRun() != ref.e.EventsRun():
		return fmt.Errorf("EventsRun %d, reference %d", lane.e.EventsRun(), ref.e.EventsRun())
	case lane.e.Pending() != ref.e.Pending():
		return fmt.Errorf("Pending %d, reference %d", lane.e.Pending(), ref.e.Pending())
	case lane.e.seq != ref.e.seq:
		return fmt.Errorf("seq %d, reference %d", lane.e.seq, ref.e.seq)
	}
	return nil
}

// runLaneProgram runs prog (3 bytes per op) on both sides in lockstep,
// then drains both, checking agreement after every op and every step.
func runLaneProgram(prog []byte) (*laneHarness, error) {
	lane, ref := newLaneHarness(true), newLaneHarness(false)
	for i := 0; i < len(prog); i += 3 {
		var a, b byte
		if i+1 < len(prog) {
			a = prog[i+1]
		}
		if i+2 < len(prog) {
			b = prog[i+2]
		}
		from := len(lane.log)
		lane.exec(prog[i], a, b)
		ref.exec(prog[i], a, b)
		if err := compareHarnesses(lane, ref, from); err != nil {
			return lane, fmt.Errorf("after op %d (%d): %v", i/3, prog[i]%10, err)
		}
	}
	for steps := 0; ; steps++ {
		from := len(lane.log)
		l, r := lane.e.Step(), ref.e.Step()
		if l != r {
			return lane, fmt.Errorf("drain step %d: lane Step %v, reference %v", steps, l, r)
		}
		if err := compareHarnesses(lane, ref, from); err != nil {
			return lane, fmt.Errorf("drain step %d: %v", steps, err)
		}
		if !l {
			return lane, nil
		}
		if steps > 1<<20 {
			return lane, fmt.Errorf("drain did not terminate")
		}
	}
}

// TestLaneMatchesHeapDispatch is the exactness oracle over random
// programs. It also checks that the programs exercise what matters: lane
// backlogs and out-of-order fallbacks.
func TestLaneMatchesHeapDispatch(t *testing.T) {
	programs := 3000
	if testing.Short() {
		programs = 300
	}
	r := NewRNG(0x1a2e)
	var fallbacks, maxBacklog, maxLane int
	for p := 0; p < programs; p++ {
		prog := make([]byte, 3*(1+r.Intn(200)))
		for i := range prog {
			prog[i] = byte(r.Uint64())
		}
		h, err := runLaneProgram(prog)
		if err != nil {
			t.Fatalf("program %d: %v\nprogram bytes: %x", p, err, prog)
		}
		fallbacks += h.fallbacks
		if h.maxBacklog > maxBacklog {
			maxBacklog = h.maxBacklog
		}
		if h.maxLaneSize > maxLane {
			maxLane = h.maxLaneSize
		}
	}
	if fallbacks == 0 || maxBacklog < 2 || maxLane < 17 {
		t.Fatalf("weak coverage: %d out-of-order fallbacks, max backlog %d, max lane size %d (ring growth needs > 16)",
			fallbacks, maxBacklog, maxLane)
	}
}

// FuzzLaneMatchesHeap runs the same oracle on fuzzer-chosen programs:
//
//	go test ./internal/sim -run '^$' -fuzz FuzzLaneMatchesHeap
func FuzzLaneMatchesHeap(f *testing.F) {
	f.Add([]byte{2, 0, 5, 2, 0, 5, 3, 0, 1, 7, 0, 0, 7, 0, 0})
	f.Add([]byte{4, 1, 0, 4, 1, 0, 4, 1, 0, 8, 0, 15, 2, 1, 3, 7, 0, 0})
	f.Add([]byte{5, 0, 9, 6, 0, 0, 5, 1, 2, 9, 2, 4, 3, 2, 0, 8, 0, 9})
	f.Add([]byte{0, 0, 3, 1, 0, 3, 2, 0, 3, 9, 0, 3, 7, 0, 0, 7, 0, 0, 7, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 3*2000 {
			prog = prog[:3*2000]
		}
		if _, err := runLaneProgram(prog); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLaneRejectsPast: a lane push before the clock is a logic bug, the
// same as for ScheduleArg.
func TestLaneRejectsPast(t *testing.T) {
	e := NewEngine()
	l := e.NewLane(func(Time, any) {})
	e.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Fatal("lane push in the past did not panic")
		}
	}()
	l.Schedule(5, nil)
}
