package cca

// bwSample is one entry of the windowed-max bandwidth filter.
type bwSample struct {
	round int64
	bw    int64 // bytes/sec
}

// bwMaxFilter is the windowed-max bandwidth filter BBRv1 and BBRv3 share:
// the maximum delivery-rate sample of the last bbrBwWindowRounds rounds.
//
// It is a monotonic deque. Samples arrive in non-decreasing round order,
// and a sample that is no larger than a later one can never be the max
// again (the later one outlives it in the window), so push drops such
// samples from the tail. What remains is strictly decreasing in bw and
// non-decreasing in round: the front is the windowed max, and eviction by
// round removes a prefix. Max is O(1) and push is amortised O(1).
//
// Eviction happens only on push, against the round of the pushed sample,
// exactly as the linear-scan filter it replaces did. A read never prunes:
// a round can advance without a sample (app-limited rejects, or no valid
// rate), and the stale maximum must keep counting until the next sample
// arrives, or BBR's outputs change.
type bwMaxFilter struct {
	s    []bwSample // live samples are s[head:]
	head int
}

// Max returns the windowed-max bandwidth, 0 when no sample is held.
func (f *bwMaxFilter) Max() int64 {
	if f.head == len(f.s) {
		return 0
	}
	return f.s[f.head].bw
}

// Push adds a sample taken in round and evicts samples older than
// round-bbrBwWindowRounds. round must not decrease between pushes.
func (f *bwMaxFilter) Push(round, bw int64) {
	n := len(f.s)
	for n > f.head && f.s[n-1].bw <= bw {
		n--
	}
	if f.head > 0 && n == cap(f.s) {
		// Full with a dead prefix: slide the live samples down instead
		// of growing the buffer.
		n = copy(f.s, f.s[f.head:n])
		f.head = 0
	}
	f.s = append(f.s[:n], bwSample{round: round, bw: bw})
	cut := round - bbrBwWindowRounds
	for f.s[f.head].round < cut {
		f.head++
	}
}
