package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator is open-loop: every request has a due time fixed
// in advance by the schedule, and a request sent late is timed from its
// due time, so a stall that delays later requests is charged to them.
// All load leaves this process over at most two keep-alive connections,
// one per sender goroutine; a request whose due time passes while both
// are busy waits, and that wait shows as lateness.
//
// Go's sleeps wake on a millisecond grid on Linux (the netpoller's
// epoll timeout), so a sender sleeping until the exact due time would
// add up to a millisecond of timer error to every request. Senders
// instead wake up to earlySlack before the due time and send at once; a
// request sent early is timed from when it was sent. Latency therefore
// never includes timer error in the generator's favour and always
// includes real lateness.

// readRoutes are the GET endpoints the read mix rotates over.
var readRoutes = [...]string{"/api/v1/report", "/api/v1/report.txt", "/api/v1/heatmap", "/api/v1/cycles"}

// kindSubmit marks a POST /api/v1/submissions in op.kind; smaller
// values index readRoutes.
const kindSubmit = len(readRoutes)

// conditionalEvery makes every n-th report GET (JSON or text) carry
// If-None-Match with the current ETag, expecting 304.
const conditionalEvery = 4

// senders is the number of connections, and goroutines, the generator
// uses.
const senders = 2

// earlySlack is how far ahead of its due time a request may be sent.
const earlySlack = time.Millisecond

type op struct {
	due  time.Duration // offset from the phase start
	kind int
	inm  bool
	body []byte // POST body
}

type opResult struct {
	lat  time.Duration // the earlier of due time and send time -> response read
	late time.Duration // due time -> request sent, 0 if sent early
	ok   bool
}

// schedule lays out a fixed-rate phase of duration d: reads evenly
// spaced at readRPS rotating over readRoutes from offset rot, and
// submissions evenly spaced at submitRPS using bodies in order.
func schedule(readRPS, submitRPS float64, d time.Duration, rot int, bodies [][]byte) []op {
	nr := int(math.Round(readRPS * d.Seconds()))
	ns := int(math.Round(submitRPS * d.Seconds()))
	if ns > len(bodies) {
		ns = len(bodies)
	}
	ops := make([]op, 0, nr+ns)
	reportGETs := 0
	for i := 0; i < nr; i++ {
		o := readOp(i, rot, &reportGETs)
		o.due = time.Duration(float64(i) / readRPS * float64(time.Second))
		ops = append(ops, o)
	}
	for j := 0; j < ns; j++ {
		ops = append(ops, op{
			due:  time.Duration((float64(j) + 0.5) / submitRPS * float64(time.Second)),
			kind: kindSubmit,
			body: bodies[j],
		})
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].due < ops[b].due })
	return ops
}

// readOp is the i-th read of the mix: routes in rotation from offset
// rot, and every conditionalEvery-th report GET conditional. reportGETs
// counts the report GETs so far.
func readOp(i, rot int, reportGETs *int) op {
	o := op{kind: (rot + i) % len(readRoutes)}
	if o.kind <= 1 {
		*reportGETs++
		o.inm = *reportGETs%conditionalEvery == 0
	}
	return o
}

// artifactRef is what a read of one route must return.
type artifactRef struct {
	body []byte
	etag string
}

type generator struct {
	base    string
	clients [senders]*http.Client
	dials   atomic.Int64
	refs    [len(readRoutes)]artifactRef
}

func newGenerator(base string) *generator {
	g := &generator{base: base}
	dialer := &net.Dialer{}
	for i := range g.clients {
		tr := &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				g.dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
		}
		g.clients[i] = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.Transport.(*http.Transport).CloseIdleConnections()
	}
}

// fetchRefs reads every route twice and records body and ETag, failing
// if the two reads disagree (an unstable ETag or body).
func (g *generator) fetchRefs() error {
	var buf bytes.Buffer
	for k, route := range readRoutes {
		var first artifactRef
		for rep := 0; rep < 2; rep++ {
			status, etag, err := g.get(g.clients[0], route, "", &buf)
			if err != nil {
				return err
			}
			if status != http.StatusOK || etag == "" {
				return fmt.Errorf("GET %s: status %d, etag %q", route, status, etag)
			}
			if rep == 0 {
				first = artifactRef{body: append([]byte(nil), buf.Bytes()...), etag: etag}
			} else if etag != first.etag || !bytes.Equal(buf.Bytes(), first.body) {
				return fmt.Errorf("GET %s: two reads of one cycle differ", route)
			}
		}
		g.refs[k] = first
	}
	return nil
}

func (g *generator) get(c *http.Client, route, inm string, buf *bytes.Buffer) (int, string, error) {
	req, err := http.NewRequest(http.MethodGet, g.base+route, nil)
	if err != nil {
		return 0, "", err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	return g.send(c, req, buf)
}

func (g *generator) send(c *http.Client, req *http.Request, buf *bytes.Buffer) (int, string, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, resp.Header.Get("Etag"), nil
}

// do performs one scheduled operation and checks its response: a
// submission must be accepted (202), a conditional read must be 304
// with the reference ETag, and any other read must be 200 with the
// reference ETag and body.
func (g *generator) do(c *http.Client, o *op, buf *bytes.Buffer) bool {
	if o.kind == kindSubmit {
		req, err := http.NewRequest(http.MethodPost, g.base+"/api/v1/submissions", bytes.NewReader(o.body))
		if err != nil {
			return false
		}
		req.Header.Set("Content-Type", "application/json")
		status, _, err := g.send(c, req, buf)
		return err == nil && status == http.StatusAccepted
	}
	ref := &g.refs[o.kind]
	inm := ""
	if o.inm {
		inm = ref.etag
	}
	status, etag, err := g.get(c, readRoutes[o.kind], inm, buf)
	switch {
	case err != nil || etag != ref.etag:
		return false
	case o.inm:
		return status == http.StatusNotModified
	}
	return status == http.StatusOK && bytes.Equal(buf.Bytes(), ref.body)
}

// run executes ops on their schedule and returns one result per op and
// the time from the phase start until the last response was read.
func (g *generator) run(ops []op) ([]opResult, time.Duration) {
	res := make([]opResult, len(ops))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(ops[i].due)
				if d := time.Until(due); d > earlySlack {
					time.Sleep(d - earlySlack)
				}
				sent := time.Now()
				ok := g.do(c, &ops[i], &buf)
				from := due
				if sent.Before(due) {
					from = sent
				}
				res[i] = opResult{lat: time.Since(from), late: max(0, sent.Sub(due)), ok: ok}
			}
		}(c)
	}
	wg.Wait()
	return res, time.Since(start)
}

// closedLoop sends the read mix back to back over one connection for
// d: each read goes out as soon as the previous response is read, so no
// request waits in a queue and no sender sleeps between requests. It
// returns the reads' latencies in ms, grouped by the window of the phase
// each started in, and the number that failed.
func (g *generator) closedLoop(d, window time.Duration, rot int) (wins [][]float64, failed int) {
	var buf bytes.Buffer
	reportGETs := 0
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		elapsed := t0.Sub(start)
		if elapsed >= d {
			return wins, failed
		}
		w := int(elapsed / window)
		for len(wins) <= w {
			wins = append(wins, nil)
		}
		o := readOp(i, rot, &reportGETs)
		if !g.do(g.clients[0], &o, &buf) {
			failed++
		}
		wins[w] = append(wins[w], ms(time.Since(t0)))
	}
}

// step is one rung of the read-capacity ladder.
type step struct {
	RPS       float64 `json:"rps"`      // offered
	Achieved  float64 `json:"achieved"` // requests completed per second of the step
	P99Ms     float64 `json:"p99_ms"`
	HeadP50Ms float64 `json:"head_p50_ms"` // median latency of the first quarter of requests
	TailP50Ms float64 `json:"tail_p50_ms"` // median latency of the last quarter
	Failed    int     `json:"failed"`
	Attempted int     `json:"attempted"`
}

// passes is the ladder's stop rule: every request succeeded, the p99
// stayed within the limit, and the backlog did not grow — latency at
// the end of the step is not higher than at its start by more than a
// quarter of the limit. A queue that grows for the whole step raises
// every later request's latency, so the tail quarter's median exceeds
// the head quarter's.
func (s step) passes(limitMs float64) bool {
	return s.Failed == 0 && s.P99Ms <= limitMs && s.TailP50Ms-s.HeadP50Ms <= limitMs/4
}

// searchCapacity finds the highest read rate whose step passes: it
// probes start, doubles (or halves) until the outcome flips, then
// bisects geometrically refine times between the last passing and the
// first failing rate. Rates above maxRPS are not probed. It returns the
// highest passing step (the zero step if even start/16 fails) and every
// step probed.
func searchCapacity(start, maxRPS float64, refine int, limitMs float64, probe func(float64) step) (step, []step) {
	var steps []step
	var best step
	try := func(r float64) bool {
		s := probe(r)
		steps = append(steps, s)
		if s.passes(limitMs) {
			best = s
			return true
		}
		return false
	}
	var lo, hi float64
	if try(start) {
		lo = start
		for r := start * 2; ; r *= 2 {
			if r > maxRPS {
				return best, steps
			}
			if !try(r) {
				hi = r
				break
			}
			lo = r
		}
	} else {
		hi = start
		for r := start / 2; lo == 0; r /= 2 {
			if r < start/16 {
				return best, steps
			}
			if try(r) {
				lo = r
			} else {
				hi = r
			}
		}
	}
	for i := 0; i < refine; i++ {
		mid := math.Sqrt(lo * hi)
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return best, steps
}

// ladderStep runs reads alone at rps for d and summarizes them.
func (g *generator) ladderStep(rps float64, d time.Duration, rot int) step {
	ops := schedule(rps, 0, d, rot, nil)
	res, elapsed := g.run(ops)
	s := step{RPS: rps, Attempted: len(res), Achieved: float64(len(res)) / elapsed.Seconds()}
	lat := make([]float64, len(res))
	for i, r := range res {
		lat[i] = ms(r.lat)
		if !r.ok {
			s.Failed++
		}
	}
	q := len(lat) / 4
	if q > 0 {
		s.HeadP50Ms = median(lat[:q])
		s.TailP50Ms = median(lat[len(lat)-q:])
	}
	s.P99Ms = percentile(lat, 0.99)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
