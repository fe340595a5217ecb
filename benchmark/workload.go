package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/obs"
	"prudentia/internal/report"
	"prudentia/internal/serve"
	"prudentia/internal/services"
	"prudentia/internal/trace"
)

// workers is the trial worker count of every watchdog: the same on
// every host, so a workload does the same work everywhere.
const workers = 2

// boots is how many times a pass sets up its daemon; setup_s is the
// median. A cycle workload's boot takes 10-200 ms, mostly a warm-up
// trial and two fsyncs, so a single boot's time spreads widely.
const boots = 15

// warmUpSeed seeds the warm-up trial of every cycle workload's boot.
const warmUpSeed = 1

// A run's --seconds is shared out: campaignFrac to the cycle campaign,
// closedFrac to back-to-back reads (read_p50_ms), openFrac to the
// open-loop read and submission mix, and, in traced runs, ladderStepFrac
// to each rung of the capacity ladder.
const (
	campaignFrac   = 0.55
	closedFrac     = 0.3
	openFrac       = 0.15
	ladderStepFrac = 0.06
)

// workload is one named benchmark input. Every workload runs the same
// pipeline: boot the daemon (serve.New + Server.Run on a loopback
// listener) over a watchdog configured as cmd/prudentia configures it,
// run a campaign of cycles through it, then read the published cycle
// back to back over one connection, drive an open-loop read and
// submission mix against it and, in traced runs, search for the highest
// read rate the daemon sustains.
type workload struct {
	name     string
	services []string
	setting  netem.Config
	// durable turns on adaptive trial budgets (-adaptive) and points
	// the watchdog's checkpoint and trial journal into the state
	// directory (-checkpoint, -journal).
	durable bool
	// oneBatch caps every pair at the quick protocol's first batch of
	// trials (MaxTrials = MinTrials), so that the trial count, and with
	// it the work in a cycle, does not depend on the seed.
	oneBatch bool
	// cycleSeconds is the nominal wall time of one cycle on a 2-CPU
	// host; it sizes the campaign from --seconds, to at least
	// minCycles.
	cycleSeconds float64
	minCycles    int
}

var workloads = []*workload{
	// BBR-heavy: about 70% of CPU is in internal/cca, so a CCA change
	// shows in full.
	{
		name:         "cycle-bbr-50mbps",
		services:     []string{"Mega", "Google Drive", "iPerf (BBR)"},
		setting:      netem.ModeratelyConstrained(),
		oneBatch:     true,
		cycleSeconds: 16,
		minCycles:    2,
	},
	// Loss-based and durable: the engine heap, the adaptive scheduler
	// and fsync dominate; BBR never runs.
	{
		name:         "cycle-lossbased-8mbps-durable",
		services:     []string{"Netflix", "OneDrive", "iPerf (Cubic)", "iPerf (Reno)"},
		setting:      netem.HighlyConstrained(),
		durable:      true,
		cycleSeconds: 0.6,
		minCycles:    1,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// cycles is the campaign length for a run of the given seconds.
func (wl *workload) cycles(seconds int) int {
	return max(wl.minCycles, int(math.Round(campaignFrac*float64(seconds)/wl.cycleSeconds)))
}

// Serve-phase traffic. The mix is synthetic: the even split over the
// read routes, the share of conditional GETs, the submit rate and the
// tenant count are choices, not taken from observed traffic. The
// closed-loop phase reads the same route mix back to back over one
// connection. The open-loop read rate sits well below the read capacity
// of a 2-CPU host over two connections (near 20k req/s) so the
// fixed-rate phase measures latency, not queueing. Submissions go out
// at a low rate beside the reads, enough to give submit_p99_ms about 210
// samples in a 35-s run; each holds one
// of the two connections for an fsync. read_p99_ms is the median over
// readWindow-long windows of each window's p99 (2000 reads, 20 beyond
// the p99), which keeps a burst of host noise in one window from
// setting the run's figure. The capacity ladder (traced runs) starts
// above the fixed rate, doubles until a step fails, then bisects four
// times (steps about 4% apart).
const (
	readRPS        = 2000.0
	submitRPS      = 40.0
	readWindow     = time.Second
	ladderLimitMs  = 10.0
	ladderStartRPS = 4 * readRPS
	ladderMaxRPS   = 128000.0
	ladderRefine   = 4
)

// trialTap wraps SchedulerOptions.Timing: every trial spec the watchdog
// builds for calibration, counted, discarded and canary attempts passes
// through it. It counts attempts and emulated seconds, and in traced
// runs installs Spec.Observe to keep each trial's testbed so engine
// events and bottleneck counters can be read once the cycle is over.
// Screening trials use ScreenTiming directly and are accounted
// separately (screenPerCycle).
type trialTap struct {
	attempts atomic.Int64
	simNanos atomic.Int64

	mu       sync.Mutex
	traced   bool
	testbeds []*netem.Testbed
}

func (t *trialTap) timing(s core.Spec) core.Spec {
	s = s.QuickTiming()
	t.attempts.Add(1)
	t.simNanos.Add(int64(s.Duration))
	if t.traced {
		s.Observe = t.observe
	}
	return s
}

func (t *trialTap) observe(tb *netem.Testbed) {
	t.mu.Lock()
	t.testbeds = append(t.testbeds, tb)
	t.mu.Unlock()
}

// netCounts are simulated totals read from finished trials' testbeds.
type netCounts struct {
	events, arrived, dropped, delivered int64
	highWater                           int
}

// harvest sums and forgets the testbeds of finished trials. Call only
// between cycles, when no trial is running.
func (t *trialTap) harvest(into *netCounts) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tb := range t.testbeds {
		into.events += int64(tb.Eng.EventsRun())
		for slot := 0; slot < 2; slot++ {
			st := tb.Bneck.Stats(slot)
			into.arrived += st.ArrivedPackets
			into.dropped += st.DroppedPackets
			into.delivered += st.DeliveredPackets
		}
		into.highWater = max(into.highWater, tb.Bneck.HighWater())
	}
	t.testbeds = nil
}

// cycleSample is one RunCycle as seen from outside the watchdog.
type cycleSample struct {
	wall, cpu, simSeconds float64
	observedSim           float64 // emulated seconds of trials the tap saw (all but screening)
	attempts              int64
	publishMs             float64
	poolBusy              float64
	result                *core.CycleResult
	text                  string // report.ReportText of the cycle
}

// timedSource is the daemon's CycleSource: the configured watchdog, with
// RunCycle timed (wall, process CPU) and held until the measured phase
// opens the gate. AdvanceTo and LoadCheckpoint are promoted from the
// watchdog, so the daemon's restart recovery sees them as usual.
type timedSource struct {
	*core.Watchdog
	tap     *trialTap
	ledger  *trace.FaultLedger
	reg     *obs.Registry
	gate    chan struct{}
	stop    chan struct{}
	screen  int // screening trials per cycle
	want    int // cycles in the campaign
	done    chan struct{}
	netSeen netCounts

	mu       sync.Mutex
	returned time.Time
	pending  cycleSample
	samples  []cycleSample
}

func (s *timedSource) RunCycle() (*core.CycleResult, error) {
	select {
	case <-s.gate:
	case <-s.stop:
		return nil, core.ErrInterrupted
	}
	a0, n0 := s.tap.attempts.Load(), s.tap.simNanos.Load()
	c0 := cpuSeconds()
	t0 := time.Now()
	cr, err := s.Watchdog.RunCycle()
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	s.tap.harvest(&s.netSeen)
	if err != nil {
		return cr, err
	}
	observed := float64(s.tap.simNanos.Load()-n0) / 1e9
	screenSim := float64(s.screen) * core.Spec{}.ScreenTiming().Duration.Seconds()
	s.mu.Lock()
	s.pending = cycleSample{
		wall:        wall,
		cpu:         cpu,
		simSeconds:  observed + screenSim,
		observedSim: observed,
		attempts:    s.tap.attempts.Load() - a0 + int64(s.screen),
		poolBusy:    s.reg.Snapshot().Gauges["prudentia_pool_busy_wall_fraction"],
		result:      cr,
	}
	s.returned = time.Now()
	s.mu.Unlock()
	return cr, nil
}

// onCycle runs on the daemon's scheduler goroutine after a cycle's
// artifacts are published.
func (s *timedSource) onCycle(cr *core.CycleResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.pending
	cs.publishMs = ms(time.Since(s.returned))
	cs.text = report.ReportText(cr, s.Settings, s.Services, s.ledger.Summary())
	s.samples = append(s.samples, cs)
	if len(s.samples) == s.want {
		close(s.done)
	}
}

func (s *timedSource) cycleSamples() []cycleSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]cycleSample(nil), s.samples...)
}

// daemon is one booted serve.Server.
type daemon struct {
	src    *timedSource
	srv    *serve.Server
	reg    *obs.Registry
	tl     *timelineBuf
	base   string
	cancel context.CancelFunc
	exited chan error

	stopOnce sync.Once
	stopErr  error
}

// newWatchdog configures a watchdog as cmd/prudentia does for
// -quick -setting <s> -services <list> -workers 2 [-adaptive -checkpoint
// <file> -journal <file>], with sketch statistics on (the CLI default).
func (wl *workload) newWatchdog(seed uint64, dir string, tap *trialTap) (*core.Watchdog, error) {
	w := core.NewWatchdog()
	w.Workers = workers
	w.Settings = []netem.Config{wl.setting}
	w.Opts = core.QuickOptions(w.Settings[0])
	if wl.oneBatch {
		w.Opts.MaxTrials = w.Opts.MinTrials
	}
	w.Opts.Timing = tap.timing
	w.Opts.BaseSeed = seed
	w.Opts.SketchStats = true
	if wl.durable {
		w.Opts.Adaptive = &core.AdaptiveOptions{}
		w.CheckpointPath = filepath.Join(dir, "checkpoint.json")
		w.JournalPath = filepath.Join(dir, "trials.wal")
	}
	var keep []services.Service
	for _, name := range wl.services {
		found := false
		for _, svc := range w.Services {
			if svc.Name() == name {
				keep = append(keep, svc)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown service %q", name)
		}
	}
	w.Services = keep
	return w, nil
}

// screenPerCycle is the number of screening trials adaptive budgets run
// per cycle: one per pair, self-pairs included.
func (wl *workload) screenPerCycle() int {
	if !wl.durable {
		return 0
	}
	n := len(wl.services)
	return n * (n + 1) / 2
}

// boot builds and starts one daemon and returns once it answers healthy
// and a warm-up trial has run. Its cycles wait for the gate.
func (wl *workload) boot(seed uint64, dir string, cycles, submissions int, traced bool) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tap := &trialTap{traced: traced}
	w, err := wl.newWatchdog(seed, dir, tap)
	if err != nil {
		return nil, err
	}
	ledger := &trace.FaultLedger{}
	w.OnFault = ledger.Record
	reg := obs.NewRegistry()
	d := &daemon{reg: reg, exited: make(chan error, 1)}
	if traced {
		d.tl = &timelineBuf{}
		w.Obs = core.NewInstruments(reg, obs.NewTimeline(d.tl))
	}
	src := &timedSource{
		Watchdog: w, tap: tap, ledger: ledger, reg: reg,
		gate: make(chan struct{}), stop: make(chan struct{}), done: make(chan struct{}),
		screen: wl.screenPerCycle(), want: cycles,
	}
	d.src = src
	d.srv, err = serve.New(serve.Config{
		Source:         src,
		Ledger:         ledger,
		Registry:       reg,
		CycleInterval:  -1,
		DrainGrace:     -1,
		MaxCycles:      cycles,
		StateDir:       filepath.Join(dir, "serve"),
		TenantBurst:    submissions + 1,
		SubmissionsMax: submissions + 1,
		OnCycle:        src.onCycle,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	go func() { d.exited <- d.srv.Run(ctx, ln) }()
	if err := d.waitOK("/healthz"); err != nil {
		d.shutdown()
		return nil, err
	}
	// Warm-up: one short solo trial of the first service, so lazy
	// initialization and heap growth are paid in set-up, not by the
	// first timed cycle. Its seed is fixed, so set-up does the same work
	// at every run seed: the trial's cost differs by up to 1.5x between
	// seeds.
	spec := core.Spec{Incumbent: w.Services[0], Net: wl.setting, Seed: warmUpSeed}.ScreenTiming()
	if _, err := core.RunTrial(spec); err != nil {
		d.shutdown()
		return nil, fmt.Errorf("warm-up trial: %w", err)
	}
	return d, nil
}

// waitOK polls path until it answers 200 or the daemon exits.
func (d *daemon) waitOK(path string) error {
	c := &http.Client{Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	for {
		resp, err := c.Get(d.base + path)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			return fmt.Errorf("daemon exited before %s answered 200: %v", path, err)
		case <-time.After(time.Millisecond):
		}
	}
}

// waitCampaign returns once the campaign's last cycle has been
// published and observed, or the daemon has exited.
func (d *daemon) waitCampaign() error {
	select {
	case <-d.src.done:
		return nil
	case err := <-d.exited:
		d.exited <- err
		return fmt.Errorf("daemon exited during the campaign: %v", err)
	}
}

// shutdown stops the daemon and waits for Run to return. Only the
// first call does so; later calls return its result.
func (d *daemon) shutdown() error {
	d.stopOnce.Do(func() {
		close(d.src.stop)
		d.cancel()
		d.stopErr = <-d.exited
	})
	return d.stopErr
}

// timelineBuf collects the JSONL timeline in memory.
type timelineBuf struct {
	mu sync.Mutex
	b  []byte
}

func (t *timelineBuf) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.b = append(t.b, p...)
	t.mu.Unlock()
	return len(p), nil
}

func (t *timelineBuf) events() ([]obs.TimelineEvent, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return obs.ReadTimeline(strings.NewReader(string(t.b)))
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(line[len("VmHWM:"):]), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
