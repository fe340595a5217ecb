package cca

import (
	"testing"

	"prudentia/internal/sim"
)

// linearBwFilter is the windowed-max filter BBRv1 and BBRv3 used before
// bwMaxFilter: append every accepted sample, evict the expired prefix on
// push, and scan the whole window for the max on every read. It is kept
// here as the exactness reference for the deque.
type linearBwFilter struct{ s []bwSample }

func (f *linearBwFilter) Max() int64 {
	var max int64
	for _, s := range f.s {
		if s.bw > max {
			max = s.bw
		}
	}
	return max
}

func (f *linearBwFilter) Push(round, bw int64) {
	f.s = append(f.s, bwSample{round: round, bw: bw})
	cut := 0
	for cut < len(f.s) && f.s[cut].round < round-bbrBwWindowRounds {
		cut++
	}
	f.s = f.s[cut:]
}

// randomRate draws a delivery-rate sample: often invalid (0), often one
// of a few repeated values (so equal bandwidths are common), otherwise
// anything.
func randomRate(r *sim.RNG) int64 {
	switch r.Intn(8) {
	case 0:
		return 0
	case 1, 2, 3:
		return int64(1+r.Intn(4)) * 1_000_000
	default:
		return 1 + int64(r.Intn(8_000_000))
	}
}

// randomRoundStep advances the round counter: mostly not at all or by
// one, sometimes across a gap with no samples that lands exactly on, or
// one past, the edge of the 10-round window.
func randomRoundStep(r *sim.RNG) int64 {
	switch r.Intn(16) {
	case 0:
		return bbrBwWindowRounds
	case 1:
		return bbrBwWindowRounds + 1
	case 2:
		return bbrBwWindowRounds - 1
	case 3, 4, 5:
		return 1
	case 6:
		return int64(2 + r.Intn(4))
	}
	return 0
}

// TestBwMaxFilterMatchesLinearScan runs random sample streams through the
// deque and the linear-scan reference and requires the same max after
// every push, under both the BBRv1 and the BBRv3 acceptance rule for
// app-limited samples.
func TestBwMaxFilterMatchesLinearScan(t *testing.T) {
	streams := 12_000
	if testing.Short() {
		streams = 2_000
	}
	r := sim.NewRNG(0xb0b)
	var pushes, rejects int
	for i := 0; i < streams; i++ {
		v3 := i%2 == 1
		var got bwMaxFilter
		var want linearBwFilter
		var round int64
		steps := 1 + r.Intn(300)
		for k := 0; k < steps; k++ {
			round += randomRoundStep(r)
			rate := randomRate(r)
			appLimited := r.Intn(4) == 0
			var accept bool
			if v3 {
				// BBRv3Alg.OnAck's rule.
				accept = rate > 0 && (!appLimited || rate > want.Max())
			} else {
				// BBRAlg.updateBw's rule.
				accept = rate > 0 && !(appLimited && rate <= want.Max())
			}
			if !accept {
				rejects++
			} else {
				want.Push(round, rate)
				got.Push(round, rate)
				pushes++
			}
			if g, w := got.Max(), want.Max(); g != w {
				t.Fatalf("stream %d step %d (round %d, v3=%v): deque max %d, linear max %d", i, k, round, v3, g, w)
			}
		}
	}
	if pushes == 0 || rejects == 0 {
		t.Fatalf("degenerate streams: %d pushes, %d rejects", pushes, rejects)
	}
}

// TestBBRBandwidthEstimateMatchesLinearScan drives the real controllers
// with random ACK streams — rounds that end with and without a sample,
// invalid rates, app-limited samples — and checks BtlBw/maxBw after every
// ACK against a linear-scan filter fed by the same acceptance rule.
func TestBBRBandwidthEstimateMatchesLinearScan(t *testing.T) {
	streams := 10_000
	if testing.Short() {
		streams = 1_000
	}
	r := sim.NewRNG(0x5eed)
	for i := 0; i < streams; i++ {
		var (
			alg   Algorithm
			round func() int64
			est   func() int64
		)
		switch i % 3 {
		case 0:
			b := NewBBR(Config{}, BBRLinux415(), sim.NewRNG(uint64(i)))
			alg, round, est = b, func() int64 { return b.round }, b.BtlBw
		case 1:
			b := NewBBR(Config{}, BBRLinux515(), sim.NewRNG(uint64(i)))
			alg, round, est = b, func() int64 { return b.round }, b.BtlBw
		default:
			b := NewBBRv3(Config{}, sim.NewRNG(uint64(i)))
			alg, round, est = b, func() int64 { return b.round }, b.maxBw
		}
		var want linearBwFilter
		var now sim.Time
		var delivered int64
		acks := 1 + r.Intn(200)
		for k := 0; k < acks; k++ {
			now += sim.Millisecond
			delivered += 1500
			s := AckSample{
				RTT: 50 * sim.Millisecond, AckedPackets: 1, AckedBytes: 1500,
				TotalDelivered: delivered,
				DeliveryRate:   randomRate(r),
				RateAppLimited: r.Intn(4) == 0,
				Inflight:       r.Intn(60),
			}
			if r.Intn(4) == 0 {
				// The acked packet was sent after the round mark: a
				// round ends on this ACK.
				s.PacketDelivered = delivered
			}
			prior := want.Max()
			alg.OnAck(now, s)
			if s.DeliveryRate > 0 && !(s.RateAppLimited && s.DeliveryRate <= prior) {
				want.Push(round(), s.DeliveryRate)
			}
			if g, w := est(), want.Max(); g != w {
				t.Fatalf("stream %d (%s) ack %d: estimate %d, linear reference %d", i, alg.Name(), k, g, w)
			}
		}
	}
}

// bbrBenchAlgs are the controllers BenchmarkBBROnAck covers.
var bbrBenchAlgs = []struct {
	name string
	new  func() Algorithm
}{
	{"linux-4.15", func() Algorithm { return NewBBR(Config{}, BBRLinux415(), sim.NewRNG(1)) }},
	{"unpaced", func() Algorithm { return NewBBR(Config{}, BBRUnpaced(), sim.NewRNG(1)) }},
	{"bbr3", func() Algorithm { return NewBBRv3(Config{}, sim.NewRNG(1)) }},
}

// steadyAcks returns a function feeding alg its i-th ACK of a 50 Mbps,
// 50 ms path: delivery-rate samples jitter around the link rate and a
// round ends every 200 ACKs. It first runs alg past startup, so the
// filter holds a full window.
func steadyAcks(alg Algorithm) func(i int) {
	const ring = 4096
	r := sim.NewRNG(7)
	rates := make([]int64, ring)
	for i := range rates {
		rates[i] = 6_250_000 - 500_000 + int64(r.Intn(1_000_000))
	}
	var now sim.Time
	var delivered, mark int64
	step := func(i int) {
		now += 240 * sim.Microsecond
		delivered += 1500
		s := AckSample{
			RTT: 50 * sim.Millisecond, AckedPackets: 1, AckedBytes: 1500,
			TotalDelivered: delivered, PacketDelivered: mark,
			DeliveryRate: rates[i&(ring-1)], Inflight: 200,
		}
		if i%200 == 0 {
			s.PacketDelivered = delivered
			mark = delivered
		}
		alg.OnAck(now, s)
	}
	for i := 0; i < 20_000; i++ {
		step(i)
	}
	return step
}

// TestBBROnAckAllocFree pins what BenchmarkBBROnAck reports: a warm
// controller's ACK path, bandwidth filter included, does not allocate.
func TestBBROnAckAllocFree(t *testing.T) {
	for _, a := range bbrBenchAlgs {
		step := steadyAcks(a.new())
		i := 0
		if n := testing.AllocsPerRun(5000, func() { step(i); i++ }); n != 0 {
			t.Errorf("%s: %.2f allocs per ACK, want 0", a.name, n)
		}
	}
}

// BenchmarkBBROnAck measures one steady-state ACK (see steadyAcks)
// through each BBR controller.
func BenchmarkBBROnAck(b *testing.B) {
	for _, a := range bbrBenchAlgs {
		b.Run(a.name, func(b *testing.B) {
			step := steadyAcks(a.new())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
		})
	}
}
