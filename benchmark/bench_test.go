package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"prudentia/internal/obs"
)

func TestPercentile(t *testing.T) {
	cases := []struct {
		vals []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{10, 20, 30, 40, 50}, 0.25, 20},
		{[]float64{0, 100}, 0.99, 99},
		{[]float64{5, 1, 9}, 1, 9},
		{[]float64{5, 1, 9}, 0, 1},
	}
	for _, c := range cases {
		if got := percentile(append([]float64(nil), c.vals...), c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.vals, c.q, got, c.want)
		}
	}
	vals := []float64{3, 1, 2}
	median(vals)
	if vals[0] != 3 {
		t.Errorf("median reordered its input: %v", vals)
	}
}

func TestHistQuantile(t *testing.T) {
	h := obs.HistogramSnapshot{Bounds: []float64{1, 2, 4}, Counts: []int64{0, 10, 0, 0}, Count: 10}
	if got := histQuantile(h, 0.5); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("p50 inside (1,2] = %v, want 1.5", got)
	}
	over := obs.HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []int64{1, 0, 9}, Count: 10}
	if got := histQuantile(over, 0.99); got != 2 {
		t.Errorf("overflow p99 = %v, want the highest bound 2", got)
	}
	if got := histQuantile(obs.HistogramSnapshot{}, 0.5); got != 0 {
		t.Errorf("empty histogram = %v", got)
	}
	d := histDelta(
		obs.HistogramSnapshot{Bounds: []float64{1}, Counts: []int64{5, 2}, Count: 7, Sum: 3},
		obs.HistogramSnapshot{Bounds: []float64{1}, Counts: []int64{1, 2}, Count: 3, Sum: 1})
	if d.Count != 4 || d.Counts[0] != 4 || d.Counts[1] != 0 || d.Sum != 2 {
		t.Errorf("histDelta = %+v", d)
	}
	m := histMerge(d, d)
	if m.Count != 8 || m.Counts[0] != 8 {
		t.Errorf("histMerge = %+v", m)
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"prudentia/internal/cca.(*BBRAlg).updateControls":                       "cca",
		"prudentia/internal/sim.(*Engine).siftDown":                             "sim",
		"prudentia/internal/sim/golden.attach.func1":                            "sim",
		"prudentia/internal/core.(*Watchdog).RunCycle.func2":                    "core",
		"prudentia/internal/sim.(*Pool[go.shape.struct { prudentia/x.y }]).Get": "sim",
		"runtime.mallocgc":                             "runtime",
		"runtime/internal/syscall.Syscall6":            "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"net/http.(*conn).serve":                       "other",
		"syscall.Syscall":                              "other",
		"main.main":                                    "other",
		"?":                                            "other",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCheckServingLayers(t *testing.T) {
	if err := checkServingLayers(map[string]float64{"serve": 0.4, "runtime": 0.2, "other": 0.3}); err != nil {
		t.Errorf("daemon-only serving phase: %v", err)
	}
	if err := checkServingLayers(nil); err != nil {
		t.Errorf("empty profile: %v", err)
	}
	err := checkServingLayers(map[string]float64{"serve": 0.4, "sim": 0.01, "cca": 0.002})
	if err == nil || !strings.Contains(err.Error(), "sim 0.010 s") || !strings.Contains(err.Error(), "cca 0.002 s") {
		t.Errorf("simulator CPU in the serving phase: %v", err)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

// TestProfileAttribution decodes a real CPU profile of this process.
func TestProfileAttribution(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Skip(err)
	}
	spin(300 * time.Millisecond)
	layers, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range layers {
		total += v
	}
	if total < 0.05 {
		t.Fatalf("profile holds %.3f s of CPU for a 300 ms spin", total)
	}
	for l := range layers {
		if l != "other" && l != "runtime" {
			t.Errorf("a spin in package main was charged to layer %q", l)
		}
	}
}

func TestStepPasses(t *testing.T) {
	ok := step{P99Ms: 3, HeadP50Ms: 0.6, TailP50Ms: 0.7}
	if !ok.passes(10) {
		t.Error("a quiet step failed")
	}
	for name, s := range map[string]step{
		"p99 over the limit": {P99Ms: 11, HeadP50Ms: 0.6, TailP50Ms: 0.6},
		"growing backlog":    {P99Ms: 9, HeadP50Ms: 0.6, TailP50Ms: 4},
		"a failed request":   {P99Ms: 1, Failed: 1},
	} {
		if s.passes(10) {
			t.Errorf("%s passed", name)
		}
	}
}

func TestSearchCapacity(t *testing.T) {
	for _, capacity := range []float64{500, 3000, 19000, 50000, 1e6} {
		var probes []float64
		best, steps := searchCapacity(8000, 128000, 4, 10, func(r float64) step {
			probes = append(probes, r)
			s := step{RPS: r, Achieved: r, P99Ms: 1}
			if r > capacity {
				s.P99Ms = 100
			}
			return s
		})
		if len(steps) != len(probes) {
			t.Fatalf("capacity %v: %d steps for %d probes", capacity, len(steps), len(probes))
		}
		switch {
		case capacity < 8000/16:
			if best.RPS != 0 {
				t.Errorf("capacity %v: found %v, want none", capacity, best.RPS)
			}
		case capacity >= 128000:
			if best.RPS != 128000 {
				t.Errorf("capacity %v: found %v, want the cap", capacity, best.RPS)
			}
		default:
			if best.RPS > capacity || best.RPS < capacity/math.Pow(2, 1.0/16)-1e-6 {
				t.Errorf("capacity %v: found %v, want within one bisection step below", capacity, best.RPS)
			}
		}
		for _, r := range probes {
			if r > 128000 {
				t.Errorf("capacity %v: probed %v above the cap", capacity, r)
			}
		}
	}
}

func TestSchedule(t *testing.T) {
	bodies := submissionBodies(7, 10)
	ops := schedule(100, 5, 2*time.Second, 1, bodies)
	var reads, subs, inm, reportGETs int
	for i, o := range ops {
		if i > 0 && o.due < ops[i-1].due {
			t.Fatalf("op %d due before op %d", i, i-1)
		}
		switch {
		case o.kind == kindSubmit:
			subs++
		default:
			reads++
			if o.kind <= 1 {
				reportGETs++
			}
			if o.inm {
				inm++
				if o.kind > 1 {
					t.Errorf("conditional GET on %s", readRoutes[o.kind])
				}
			}
		}
	}
	if reads != 200 || subs != 10 {
		t.Errorf("%d reads and %d submissions, want 200 and 10", reads, subs)
	}
	if inm != reportGETs/conditionalEvery {
		t.Errorf("%d conditional of %d report GETs", inm, reportGETs)
	}
	if ops[0].kind != 1 {
		t.Errorf("rotation offset ignored: first op kind %d", ops[0].kind)
	}
}

func TestRecordCheck(t *testing.T) {
	if reportDigest([]string{"a", "b"}) != reportDigest([]string{"ab"}) {
		t.Error("digest is not over the concatenated texts")
	}
	if reportDigest([]string{"a"}) == reportDigest([]string{"b"}) {
		t.Error("different reports share a digest")
	}
	stored := map[string]string{"report_sha256": "x", "trial_attempts": "41"}
	merged, bad := mergeRecord(stored, map[string]string{"trial_attempts": "41", "sim_events": "9"})
	if len(bad) != 0 || merged["sim_events"] != "9" || merged["report_sha256"] != "x" {
		t.Errorf("consistent record: merged %v, mismatches %v", merged, bad)
	}
	_, bad = mergeRecord(stored, map[string]string{"report_sha256": "y"})
	if len(bad) != 1 {
		t.Errorf("a changed digest was not reported: %v", bad)
	}

	path := t.TempDir() + "/rec.json"
	if bad, err := checkRecord(path, map[string]string{"a": "1"}); err != nil || len(bad) != 0 {
		t.Fatalf("first record: %v %v", bad, err)
	}
	if bad, err := checkRecord(path, map[string]string{"a": "2"}); err != nil || len(bad) != 1 {
		t.Fatalf("second record with a different value: %v %v", bad, err)
	}
	if _, err := committedDigest("cycle-bbr-50mbps"); err != nil {
		t.Fatal(err)
	}
}

func TestCycles(t *testing.T) {
	bbr, loss := findWorkload("cycle-bbr-50mbps"), findWorkload("cycle-lossbased-8mbps-durable")
	if bbr.cycles(35) != 2 || bbr.cycles(1) != 2 || bbr.cycles(100) != 3 {
		t.Errorf("bbr campaign of %d, %d, %d cycles for 35, 1, 100 s", bbr.cycles(35), bbr.cycles(1), bbr.cycles(100))
	}
	if loss.cycles(35) != 32 || loss.cycles(1) != 1 {
		t.Errorf("lossbased runs %d cycles in 35 s, %d in 1 s", loss.cycles(35), loss.cycles(1))
	}
	if findWorkload("nope") != nil {
		t.Error("unknown workload found")
	}
}

func TestMatchSpec(t *testing.T) {
	path := t.TempDir() + "/BENCHMARK.json"
	spec := `{"end_to_end": [{"name": "a", "unit": "s"}], "per_layer": [{"name": "b", "unit": "count"}, {"name": "c", "unit": "ms"}]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := matchSpec(path, false, map[string]metric{"a": {1, "s"}}); err != nil {
		t.Errorf("matching end-to-end metrics: %v", err)
	}
	if err := matchSpec(path, true, map[string]metric{"b": {1, "count"}, "c": {2, "ms"}}); err != nil {
		t.Errorf("matching per-layer metrics: %v", err)
	}
	for name, got := range map[string]map[string]metric{
		"missing":    {},
		"extra":      {"a": {1, "s"}, "z": {1, "s"}},
		"wrong unit": {"a": {1, "ms"}},
		"renamed":    {"b": {1, "s"}},
	} {
		if matchSpec(path, false, got) == nil {
			t.Errorf("%s metric accepted", name)
		}
	}
}

// TestBenchmarkJSON checks the repository's BENCHMARK.json against the
// metrics the benchmark assembles: every workload is defined here, and
// the end-to-end list names exactly what endToEnd prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	p := &passOut{wl: workloads[0], samples: []cycleSample{{wall: 1, cpu: 1, simSeconds: 1}}}
	if err := matchSpec("../BENCHMARK.json", false, endToEnd(p)); err != nil {
		t.Error(err)
	}
}

func TestClosedLoop(t *testing.T) {
	const etag = `"v1"`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Etag", etag)
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Write([]byte(r.URL.Path))
	}))
	defer srv.Close()
	g := newGenerator(srv.URL)
	defer g.close()
	if err := g.fetchRefs(); err != nil {
		t.Fatal(err)
	}
	wins, failed := g.closedLoop(50*time.Millisecond, 10*time.Millisecond, 2)
	if len(wins) > 5 || len(wins[0]) == 0 || failed != 0 {
		t.Errorf("%d windows, %d failed", len(wins), failed)
	}
	if n := g.dials.Load(); n != 1 {
		t.Errorf("closed loop used %d connections, want 1", n)
	}

	g.refs[0].etag = `"stale"`
	if _, failed := g.closedLoop(20*time.Millisecond, 10*time.Millisecond, 0); failed == 0 {
		t.Error("reads with a changed ETag were not counted as failed")
	}
}
