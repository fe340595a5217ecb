package main

import (
	"fmt"
	"strings"

	"prudentia/internal/obs"
)

// simulatorLayers are the packages that run inside a trial. None of
// them should use CPU while the daemon only serves.
var simulatorLayers = []string{"sim", "cca", "transport", "netem", "services", "browser", "abr", "metrics"}

// checkServingLayers fails when the serving phase's profile charged CPU
// to a simulator package: no trial may run while the daemon only serves.
func checkServingLayers(layers map[string]float64) error {
	var busy []string
	for _, l := range simulatorLayers {
		if layers[l] > 0 {
			busy = append(busy, fmt.Sprintf("%s %.3f s", l, layers[l]))
		}
	}
	if len(busy) > 0 {
		return fmt.Errorf("simulator packages used CPU in the serving phase: %s", strings.Join(busy, ", "))
	}
	return nil
}

// cpuLayers get a <layer>.cpu_s metric: CPU seconds per cycle whose
// leaf frame is in the layer, over the cycle profile window.
var cpuLayers = []string{"sim", "cca", "transport", "netem", "services", "core", "stats", "journal", "runtime", "other"}

// httpRoutes are the daemon's route labels for the read mix.
var httpRoutes = []string{"report", "report.txt", "heatmap", "cycles"}

// perLayer assembles the per-layer metrics of a traced run. base is the
// untraced campaign run first in the same process.
func perLayer(p, base *passOut, res *result) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	cycles := float64(len(p.samples))
	c := p.counters()
	walls, cpus := p.cycleSeries()

	var simAll, simObserved float64
	var offCPU, busy, publish []float64
	for i, s := range p.samples {
		simAll += s.simSeconds
		simObserved += s.observedSim
		offCPU = append(offCPU, walls[i]*workers-cpus[i])
		busy = append(busy, s.poolBusy)
		publish = append(publish, s.publishMs)
	}
	// The tap sees every trial but screening; scale layer CPU to the
	// trials whose events and packets it counted.
	observed := 0.0
	if simAll > 0 {
		observed = simObserved / simAll
	}
	for _, l := range cpuLayers {
		put(l+".cpu_s", p.cycleLayers[l]/cycles, "s")
	}
	put("core.cycles", cycles, "count")
	put("sim.events", float64(p.net.events), "count")
	put("sim.ns_per_event", nsPer(p.cycleLayers["sim"]*observed, p.net.events), "ns")
	put("cca.ns_per_delivered_pkt", nsPer(p.cycleLayers["cca"]*observed, p.net.delivered), "ns")
	put("transport.retransmits", float64(c["prudentia_transport_retransmits_total"]), "count")
	put("transport.timeouts", float64(c["prudentia_transport_timeouts_total"]), "count")
	put("netem.pkts_arrived", float64(p.net.arrived), "count")
	put("netem.drop_ratio", ratio(float64(p.net.dropped), float64(p.net.arrived)), "1")
	put("netem.queue_high_water", float64(p.net.highWater), "pkts")

	attempts, _ := parseInt(p.exact["trial_attempts"])
	counted, _ := parseInt(p.exact["trials_counted"])
	put("core.trial_attempts", float64(attempts), "count")
	put("core.trials_counted", float64(counted), "count")
	put("core.screen_trials", float64(c["prudentia_adaptive_screen_trials_total"]), "count")
	put("core.calibrations", float64(c["prudentia_calibrations_total"]), "count")
	put("core.useful_trial_ratio", ratio(float64(counted), float64(attempts)), "1")
	trialWall, phases := p.timelineStats()
	put("core.trial_wall_ms.p50", percentile(trialWall, 0.5), "ms")
	put("core.trial_wall_ms.p99", percentile(trialWall, 0.99), "ms")
	put("core.calibration_s", phases[0]/cycles, "s")
	put("core.screen_s", phases[1]/cycles, "s")
	put("core.matrix_s", phases[2]/cycles, "s")
	put("core.pool_busy_fraction", mean(busy), "1")
	put("core.offcpu_s", mean(offCPU), "s")
	put("journal.records", float64(c["prudentia_journal_records_total"]), "count")
	put("journal.bytes", float64(c["prudentia_journal_bytes_total"]), "bytes")
	put("checkpoint.saves", float64(c["prudentia_checkpoint_saves_total"]), "count")
	put("runtime.gc_cpu_s", p.cycleRuntime.gcCPU/cycles, "s")
	put("runtime.alloc_bytes", p.cycleRuntime.allocBytes/cycles, "bytes")

	last := p.boots[len(p.boots)-1]
	own := last.src.cycleSamples()
	put("report.render_ms", renderMs(last, own[len(own)-1].result), "ms")
	put("serve.cycle_s", median(walls), "s")
	put("serve.publish_ms", median(publish), "ms")

	s := &p.serve
	var hists []obs.HistogramSnapshot
	var reqs, notModified int64
	for _, r := range httpRoutes {
		label := `{route="` + r + `"}`
		name := "prudentia_http_request_wall_seconds" + label
		hists = append(hists, histDelta(s.snap1.Histograms[name], s.snap0.Histograms[name]))
		reqs += s.snap1.Counters["prudentia_http_requests_total"+label] - s.snap0.Counters["prudentia_http_requests_total"+label]
		notModified += s.snap1.Counters["prudentia_http_not_modified_total"+label] - s.snap0.Counters["prudentia_http_not_modified_total"+label]
	}
	// The route histograms' first bucket is 100 µs and nearly every
	// cached read lands in it, so p50 and p99 cannot resolve a faster
	// handler; the exact mean can.
	h := histMerge(hists...)
	handlerMean := ratio(h.Sum, float64(h.Count)) * 1e6
	put("serve.handler_p50_us", histQuantile(h, 0.5)*1e6, "us")
	put("serve.handler_p99_us", histQuantile(h, 0.99)*1e6, "us")
	put("serve.handler_mean_us", handlerMean, "us")
	put("serve.not_modified_ratio", ratio(float64(notModified), float64(reqs)), "1")
	sc := last.reg.Snapshot().Counters
	put("subs.accepted", float64(sc["prudentia_serve_submissions_accepted_total"]), "count")
	put("subs.denied", float64(sc["prudentia_serve_submissions_denied_total"]), "count")
	put("http.overhead_us", median(s.reads)*1e3-handlerMean, "us")
	put("gen.late_p99_ms", percentile(s.late, 0.99), "ms")
	put("gen.late_max_ms", percentile(s.late, 1), "ms")
	put("serve_phase.sim_cpu_s", sumLayers(s.layers, simulatorLayers), "s")
	put("serve_phase.serve_cpu_s", sumLayers(s.layers, []string{"serve", "obs"}), "s")
	put("serve_phase.runtime_cpu_s", s.layers["runtime"], "s")
	put("serve_phase.other_cpu_s", s.layers["other"], "s")
	put("serve_phase.gc_cpu_s", s.runtime.gcCPU, "s")
	put("serve_phase.alloc_bytes_per_req", ratio(s.runtime.allocBytes, float64(s.requests)), "bytes")

	put("read_max_rps", s.maxRPS, "1/s")
	put("read_fixed_rate_p50_ms", median(s.reads), "ms")
	put("read_p99_ms", median(s.windowP99), "ms")
	put("submit_p50_ms", median(s.submits), "ms")
	put("submit_p99_ms", percentile(s.submits, 0.99), "ms")
	put("submit.samples", float64(len(s.submits)), "count")
	baseWalls, _ := base.cycleSeries()
	put("trace.overhead_pct", 100*(mean(walls)/mean(baseWalls)-1), "%")
	put("error_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "1")
	return m
}

// timelineStats reads every boot's timeline: the wall time of each
// trial the timeline reports, and the summed wall seconds of the
// calibration, screening and matrix phases of all cycles. A cycle's
// calibration phase runs from its setting_start to its last
// calibration_done, screening from there to its last screen_trial, and
// the matrix from there to cycle_end. Timestamps have millisecond
// resolution.
func (p *passOut) timelineStats() (trialWallMs []float64, phases [3]float64) {
	for _, d := range p.boots {
		evs, err := d.tl.events()
		if err != nil {
			p.problem("timeline: %v", err)
			continue
		}
		var start, cal, scr int64
		for _, ev := range evs {
			if ev.WallSeconds > 0 {
				trialWallMs = append(trialWallMs, ev.WallSeconds*1e3)
			}
			switch ev.Kind {
			case "setting_start":
				start, cal, scr = ev.WallMs, ev.WallMs, 0
			case "calibration_done":
				cal = ev.WallMs
			case "screen_trial":
				scr = ev.WallMs
			case "cycle_end":
				if start == 0 || !strings.HasPrefix(ev.Detail, "completed") {
					continue
				}
				if scr < cal {
					scr = cal
				}
				phases[0] += float64(cal-start) / 1e3
				phases[1] += float64(scr-cal) / 1e3
				phases[2] += float64(ev.WallMs-scr) / 1e3
				start = 0
			}
		}
	}
	return trialWallMs, phases
}

// closedP50 is the mean over the closed-loop phase's windows of each
// window's median read latency. The host's speed changes from one
// second to the next; a mean follows the share of time spent fast or
// slow, where one median over all reads would jump with it.
func (s *serveOut) closedP50() float64 {
	var p50s []float64
	for _, w := range s.closed {
		if len(w) > 0 {
			p50s = append(p50s, median(w))
		}
	}
	return mean(p50s)
}

func sumLayers(layers map[string]float64, names []string) float64 {
	var t float64
	for _, n := range names {
		t += layers[n]
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func nsPer(seconds float64, n int64) float64 { return ratio(seconds*1e9, float64(n)) }

func mean(vals []float64) float64 {
	var t float64
	for _, v := range vals {
		t += v
	}
	return ratio(t, float64(len(vals)))
}
