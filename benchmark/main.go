// Command benchmark is the repository benchmark: it runs one named
// workload at a given seed, checks the program's outputs, and prints
// the result as one JSON object on the last line of standard output.
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Uint64("seed", defaultSeed, "input seed: the watchdog's base seed and the request schedule")
	seconds := flag.Int("seconds", defaultSeconds, "run length; sizes the cycle campaign and the serving phase")
	traced := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	wl := findWorkload(*name)
	if wl == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if *seed == 0 {
		// The watchdog treats base seed 0 as "default"; keep every
		// seed distinct.
		fmt.Fprintln(os.Stderr, "benchmark: --seed must be nonzero")
		os.Exit(2)
	}
	res, host, err := run(wl, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(rb))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// run executes one benchmark run in a scratch directory under
// .bench_build/ in the working directory.
func run(wl *workload, seed uint64, seconds int, traced bool) (*result, map[string]any, error) {
	buildDir, err := filepath.Abs(".bench_build")
	if err != nil {
		return nil, nil, err
	}
	runs := filepath.Join(buildDir, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(runs, wl.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	cfg := passConfig{wl: wl, seed: seed, seconds: seconds, dir: dir}
	var base *passOut
	if traced {
		// An untraced campaign first, in the same process, gives the
		// baseline for trace.overhead_pct.
		cfg.traced, cfg.servePhase = false, false
		cfg.dir = filepath.Join(dir, "baseline")
		if base, err = runPass(cfg); err != nil {
			return nil, nil, err
		}
		cfg.dir = filepath.Join(dir, "traced")
	}
	cfg.traced, cfg.servePhase = traced, true
	out, err := runPass(cfg)
	if err != nil {
		return nil, nil, err
	}

	res := &result{}
	var problems []string
	for _, p := range []*passOut{base, out} {
		if p == nil {
			continue
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
		problems = append(problems, p.problems...)
		bad, err := checkRecord(recordPath(buildDir, wl.name, seed, seconds), p.exact)
		if err != nil {
			return nil, nil, err
		}
		problems = append(problems, bad...)
	}
	if seed == defaultSeed && seconds == defaultSeconds {
		want, err := committedDigest(wl.name)
		if err != nil {
			return nil, nil, err
		}
		if want != "" && want != out.exact["report_sha256"] {
			problems = append(problems, fmt.Sprintf("report digest %s, digests.json records %s", out.exact["report_sha256"], want))
		}
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "benchmark: check failed: %s\n", p)
	}
	fmt.Printf("report_sha256 %s\n", out.exact["report_sha256"])

	res.Correct = len(problems) == 0
	res.Failed += int64(len(problems))
	if traced {
		res.Metrics = perLayer(out, base, res)
	} else {
		res.Metrics = endToEnd(out)
	}
	if err := matchSpec("BENCHMARK.json", traced, res.Metrics); err != nil {
		return nil, nil, err
	}
	return res, hostFacts(dir), nil
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// matchSpec checks that the metrics a run prints are exactly the ones
// BENCHMARK.json declares for the run's kind (per_layer when traced,
// end_to_end otherwise), with the declared units.
func matchSpec(path string, traced bool, got map[string]metric) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	if len(want) != len(got) {
		return fmt.Errorf("%s declares %d metrics, the run has %d", path, len(want), len(got))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			return fmt.Errorf("%s declares %s, the run does not measure it", path, w.Name)
		}
		if m.Unit != w.Unit {
			return fmt.Errorf("%s gives %s unit %q, the run %q", path, w.Name, w.Unit, m.Unit)
		}
	}
	return nil
}

// endToEnd assembles the end-to-end metrics of an untraced run. The
// cycle figures are campaign means, which average the host's
// second-to-second speed changes over the whole campaign; the median of
// single cycles follows whichever speed most cycles happened to get.
func endToEnd(p *passOut) map[string]metric {
	walls, cpus := p.cycleSeries()
	var sim, wall float64
	for _, s := range p.samples {
		sim += s.simSeconds
		wall += s.wall
	}
	return map[string]metric{
		"cycle_wall_s":     {mean(walls), "s"},
		"sim_s_per_wall_s": {ratio(sim, wall), "s/s"},
		"cpu_s":            {mean(cpus), "s"},
		"setup_s":          {median(p.setup), "s"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"read_p50_ms":      {p.serve.closedP50(), "ms"},
	}
}

// hostFacts describes where the run happened.
func hostFacts(stateDir string) map[string]any {
	cpuModel := ""
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					cpuModel = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"cpu_model":      cpuModel,
		"state_dir_fs":   fsType(stateDir),
		"network":        "loopback",
		"trial_workers":  workers,
		"utc":            time.Now().UTC().Format(time.RFC3339),
		"http_senders":   senders,
		"fixed_read_rps": readRPS,
	}
}

// fsType finds the filesystem type of the mount holding path.
func fsType(path string) string {
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if (path == mnt || strings.HasPrefix(path, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > best {
			best, typ = len(mnt), f[2]
		}
	}
	return typ
}
