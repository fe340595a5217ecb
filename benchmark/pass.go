package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"prudentia/internal/core"
	"prudentia/internal/obs"
	"prudentia/internal/report"
)

type passConfig struct {
	wl         *workload
	seed       uint64
	seconds    int
	dir        string
	traced     bool
	servePhase bool
}

// passOut is everything one pass measured.
type passOut struct {
	wl                *workload
	setup             []float64     // seconds per boot
	samples           []cycleSample // every cycle of every boot, in order
	boots             []*daemon
	attempted, failed int64
	problems          []string          // failed output checks
	exact             map[string]string // values that must repeat across runs

	// Traced only.
	cycleLayers  map[string]float64 // CPU s per layer over set-up and campaign
	cycleRuntime runtimeSample
	net          netCounts
	serve        serveOut
}

type serveOut struct {
	closed               [][]float64 // ms, closed-loop reads per readWindow
	reads, submits, late []float64   // ms, fixed-rate phase
	windowP99            []float64   // ms, p99 of reads per readWindow of the phase
	requests             int64
	accepted             int64 // 202 responses
	maxRPS               float64
	ladder               []step
	snap0, snap1         obs.Snapshot // registry around the fixed-rate phase
	layers               map[string]float64
	runtime              runtimeSample
}

func (p *passOut) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// runPass sets up the workload's daemon boots times, runs its cycle
// campaign, checks what it published and, if asked, drives the serving
// phase against it.
func runPass(cfg passConfig) (*passOut, error) {
	wl := cfg.wl
	p := &passOut{wl: wl, exact: map[string]string{}}
	cycles := wl.cycles(cfg.seconds)
	var bodies [][]byte
	if cfg.servePhase {
		bodies = submissionBodies(cfg.seed, int(submitRPS*share(cfg.seconds, openFrac).Seconds()+0.5))
	}

	for b := 0; b < boots; b++ {
		// Start each boot from a collected heap, as a fresh process
		// would, so garbage from earlier boots does not put a GC cycle
		// into some boots' set-up and not others'.
		runtime.GC()
		t0 := time.Now()
		d, err := wl.boot(cfg.seed, filepath.Join(cfg.dir, fmt.Sprintf("boot%d", b)), cycles, len(bodies), cfg.traced)
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", b, err)
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
		p.boots = append(p.boots, d)
		if b < boots-1 {
			if err := d.shutdown(); err != nil {
				return nil, fmt.Errorf("boot %d shutdown: %w", b, err)
			}
		}
	}
	last := p.boots[len(p.boots)-1]
	defer last.shutdown()

	// The traced run profiles the campaign.
	var prof *cpuProfile
	var rt0 runtimeSample
	defer func() {
		if prof != nil {
			prof.stop()
		}
	}()
	if cfg.traced {
		runtime.GC()
		rt0 = readRuntime()
		var err error
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
	}
	close(last.src.gate)
	if err := last.waitCampaign(); err != nil {
		return nil, err
	}
	for _, d := range p.boots {
		p.samples = append(p.samples, d.src.cycleSamples()...)
		p.net.add(d.src.netSeen)
	}
	if prof != nil {
		layers, err := prof.stop()
		prof = nil
		if err != nil {
			return nil, err
		}
		p.cycleLayers = layers
		p.cycleRuntime = readRuntime().since(rt0)
	}
	p.checkCycles(last)

	if cfg.servePhase {
		if err := p.runServe(cfg, last, bodies); err != nil {
			return nil, err
		}
	}
	if err := last.shutdown(); err != nil {
		return nil, fmt.Errorf("daemon shutdown: %w", err)
	}
	return p, nil
}

// checkCycles verifies the campaign's output and records its exact
// values: the served text report is byte-identical to the batch
// renderer's output for the published cycle, and the report digest and
// trial counts repeat across runs.
func (p *passOut) checkCycles(last *daemon) {
	own := last.src.cycleSamples()
	if len(own) == 0 {
		p.problem("no cycle completed")
		return
	}
	g := newGenerator(last.base)
	defer g.close()
	if err := g.fetchRefs(); err != nil {
		p.problem("%v", err)
	} else if string(g.refs[1].body) != own[len(own)-1].text {
		p.problem("/api/v1/report.txt differs from report.ReportText of the published cycle")
	}
	var texts []string
	for _, s := range own {
		texts = append(texts, s.text)
	}
	p.exact["report_sha256"] = reportDigest(texts)
	var attempts, counted, failures int64
	for _, s := range p.samples {
		attempts += s.attempts
		for _, m := range s.result.PerSetting {
			for _, po := range m.Pairs {
				counted += int64(po.Counted())
				failures += int64(len(po.Failures))
			}
		}
	}
	p.attempted += attempts
	p.failed += failures
	p.exact["trial_attempts"] = strconv.FormatInt(attempts, 10)
	p.exact["trials_counted"] = strconv.FormatInt(counted, 10)
	p.exact["trial_failures"] = strconv.FormatInt(failures, 10)
	if p.net.events > 0 {
		p.exact["sim_events"] = strconv.FormatInt(p.net.events, 10)
		p.exact["netem_arrived"] = strconv.FormatInt(p.net.arrived, 10)
		p.exact["netem_dropped"] = strconv.FormatInt(p.net.dropped, 10)
		p.exact["netem_delivered"] = strconv.FormatInt(p.net.delivered, 10)
		p.exact["netem_high_water"] = strconv.Itoa(p.net.highWater)
		c := p.counters()
		for _, name := range []string{
			"prudentia_transport_retransmits_total", "prudentia_transport_timeouts_total",
			"prudentia_adaptive_screen_trials_total", "prudentia_calibrations_total",
			"prudentia_journal_records_total", "prudentia_journal_bytes_total",
			"prudentia_checkpoint_saves_total",
		} {
			p.exact[name] = strconv.FormatInt(c[name], 10)
		}
		if want := int64(p.wl.screenPerCycle() * len(p.samples)); c["prudentia_adaptive_screen_trials_total"] != want {
			p.problem("%d screening trials counted by the watchdog, %d expected", c["prudentia_adaptive_screen_trials_total"], want)
		}
	}
}

// counters sums every boot's registry counters.
func (p *passOut) counters() map[string]int64 {
	sum := map[string]int64{}
	for _, d := range p.boots {
		for k, v := range d.reg.Snapshot().Counters {
			sum[k] += v
		}
	}
	return sum
}

// runServe drives the closed-loop read phase and the fixed-rate read
// and submission phase against the last daemon and, in traced runs, the
// read-capacity ladder after them.
func (p *passOut) runServe(cfg passConfig, d *daemon, bodies [][]byte) error {
	g := newGenerator(d.base)
	defer g.close()
	if err := g.fetchRefs(); err != nil {
		return err
	}
	rot := int(cfg.seed % uint64(len(readRoutes)))
	ops := schedule(readRPS, submitRPS, share(cfg.seconds, openFrac), rot, bodies)

	// Serve from a collected heap: the campaign's garbage would
	// otherwise put GC work into some runs' reads and not others'.
	runtime.GC()
	var prof *cpuProfile
	var rt0 runtimeSample
	if cfg.traced {
		rt0 = readRuntime()
		var err error
		if prof, err = startProfile(); err != nil {
			return err
		}
	}
	s := &p.serve
	var closedFailed int
	s.closed, closedFailed = g.closedLoop(share(cfg.seconds, closedFrac), readWindow, rot)
	p.failed += int64(closedFailed)
	for _, w := range s.closed {
		s.requests += int64(len(w))
	}
	s.snap0 = d.reg.Snapshot()
	res, _ := g.run(ops)
	s.snap1 = d.reg.Snapshot()
	windows := map[time.Duration][]float64{}
	for i, r := range res {
		s.late = append(s.late, ms(r.late))
		if ops[i].kind == kindSubmit {
			s.submits = append(s.submits, ms(r.lat))
			if r.ok {
				s.accepted++
			}
		} else {
			s.reads = append(s.reads, ms(r.lat))
			w := ops[i].due / readWindow
			windows[w] = append(windows[w], ms(r.lat))
		}
		if !r.ok {
			p.failed++
		}
	}
	for _, w := range windows {
		s.windowP99 = append(s.windowP99, percentile(w, 0.99))
	}
	s.requests += int64(len(res))
	if cfg.traced {
		stepDur := share(cfg.seconds, ladderStepFrac)
		best, ladder := searchCapacity(ladderStartRPS, ladderMaxRPS, ladderRefine, ladderLimitMs,
			func(r float64) step { return g.ladderStep(r, stepDur, rot) })
		s.maxRPS, s.ladder = best.Achieved, ladder
		for _, st := range s.ladder {
			s.requests += int64(st.Attempted)
			p.failed += int64(st.Failed)
		}
		lb, _ := json.Marshal(s.ladder)
		fmt.Fprintf(os.Stderr, "benchmark: ladder %s\n", lb)
		layers, err := prof.stop()
		if err != nil {
			return err
		}
		s.layers = layers
		s.runtime = readRuntime().since(rt0)
		if err := checkServingLayers(layers); err != nil {
			p.problem("%v", err)
		}
	}
	p.attempted += s.requests

	if got := d.reg.Snapshot().Counters["prudentia_serve_submissions_accepted_total"]; got != s.accepted {
		p.problem("%d submissions answered 202 but the daemon counted %d accepted", s.accepted, got)
	}
	if n := g.dials.Load(); n > senders {
		p.problem("generator opened %d connections, limit %d", n, senders)
	}
	return nil
}

// share is frac of a run of the given seconds.
func share(seconds int, frac float64) time.Duration {
	return time.Duration(frac * float64(seconds) * float64(time.Second))
}

// submissionBodies builds n valid submissions (Appendix A access codes)
// spread over eight tenants, with URLs derived from the seed.
func submissionBodies(seed uint64, n int) [][]byte {
	codes := core.NewWatchdog().AccessCodes
	out := make([][]byte, n)
	for j := range out {
		out[j], _ = json.Marshal(map[string]string{
			"url":         fmt.Sprintf("https://bench-%d.example/page/%d", seed, j),
			"access_code": codes[j%len(codes)],
			"tenant":      fmt.Sprintf("tenant-%d", j%8),
		})
	}
	return out
}

// cycleSeries returns per-cycle wall seconds and CPU seconds.
func (p *passOut) cycleSeries() (walls, cpus []float64) {
	for _, s := range p.samples {
		walls = append(walls, s.wall)
		cpus = append(cpus, s.cpu)
	}
	return
}

func (n *netCounts) add(o netCounts) {
	n.events += o.events
	n.arrived += o.arrived
	n.dropped += o.dropped
	n.delivered += o.delivered
	n.highWater = max(n.highWater, o.highWater)
}

// runtimeSample reads the Go runtime's cumulative GC CPU and heap
// allocation.
type runtimeSample struct{ gcCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = float64(s[1].Value.Uint64())
	}
	return r
}

func (r runtimeSample) since(o runtimeSample) runtimeSample {
	return runtimeSample{gcCPU: r.gcCPU - o.gcCPU, allocBytes: r.allocBytes - o.allocBytes}
}

// renderMs times the report renderers the daemon publishes with, on the
// last cycle: median of five renders.
func renderMs(d *daemon, cr *core.CycleResult) float64 {
	var t []float64
	settings, svcs := d.src.Settings, d.src.Services
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		_ = report.ReportText(cr, settings, svcs, d.src.ledger.Summary())
		_, _ = report.CycleJSON(cr, settings, svcs)
		_ = report.HeatmapHTML(cr, settings, svcs)
		t = append(t, ms(time.Since(t0)))
	}
	return median(t)
}
