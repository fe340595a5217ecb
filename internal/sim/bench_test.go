package sim

import "testing"

// BenchmarkEngineDispatch measures the bare schedule+dispatch round trip:
// a single self-rescheduling event, so every iteration is one heap push,
// one heap pop, and one callback. This is the loop every virtual packet
// crosses at least twice; its allocs/op must be zero (the regression gate
// in scripts/bench.sh -check enforces that against BENCH_sim.json).
func BenchmarkEngineDispatch(b *testing.B) {
	e := NewEngine()
	var tick Event
	tick = func(now Time) { e.After(Microsecond, tick) }
	e.After(Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineDeepHeap measures dispatch with 4096 events pending —
// the regime a busy experiment (hundreds of in-flight packets, timers,
// samplers) actually runs in, where heap arity and comparison count
// dominate.
func BenchmarkEngineDeepHeap(b *testing.B) {
	e := NewEngine()
	var tick Event
	tick = func(now Time) { e.After(Millisecond, tick) }
	for i := 0; i < 4096; i++ {
		e.After(Time(i)*Microsecond, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineTimerChurn measures the arm/cancel cycle transport flows
// perform on every ACK (RTO re-arm) and every paced send: one reusable
// timer, Reset and Stopped per operation, as Flow does with its pacing
// and RTO timers.
func BenchmarkEngineTimerChurn(b *testing.B) {
	e := NewEngine()
	fn := func(Time) {}
	t := e.NewTimer()
	// Keep the clock moving so deadlines stay in the future.
	var tick Event
	tick = func(now Time) { e.After(Microsecond, tick) }
	e.After(Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Reset(Millisecond, fn)
		t.Stop()
		e.Step()
	}
}

// BenchmarkEngineDelayLine measures a propagation hop with 4096 packets
// in flight: each event re-sends its packet after the same fixed delay,
// so the deadlines form one FIFO stream. "lane" carries the stream on a
// Lane, which keeps one heap entry; "heap" schedules every packet with
// ScheduleArg, the heap holding all 4096. Each iteration is one
// dispatched packet.
func BenchmarkEngineDelayLine(b *testing.B) {
	const inFlight = 4096
	const delay = inFlight * Microsecond
	pkts := make([]int, inFlight)
	b.Run("lane", func(b *testing.B) {
		e := NewEngine()
		var l *Lane
		l = e.NewLane(func(now Time, arg any) { l.Schedule(now+delay, arg) })
		for i := range pkts {
			l.Schedule(Time(i)*Microsecond, &pkts[i])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
	b.Run("heap", func(b *testing.B) {
		e := NewEngine()
		var fn ArgEvent
		fn = func(now Time, arg any) { e.ScheduleArg(now+delay, fn, arg) }
		for i := range pkts {
			e.ScheduleArg(Time(i)*Microsecond, fn, &pkts[i])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
}
