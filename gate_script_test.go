package prudentia_test

// Regression tests for scripts/bench.sh -check: the gate must fail
// loudly on every degenerate input instead of passing vacuously. The
// historical bug: an empty benchmark reduction made the while-read loop
// a no-op, so the script printed OK having checked nothing.
//
// The tests drive the real script through its BENCH_SIM_OUT /
// BENCH_CHECK_RAW / BENCH_NS_TOLERANCE hooks, so no benchmarks run and
// each case completes in milliseconds.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goodRaw mirrors run_sim_bench's reduction format:
// "name ns_op bytes_op allocs_op simsec_wallsec".
const goodRaw = `BenchmarkBottleneckDropTail 14.00 0 0 -1.0
BenchmarkBottleneckSteadyState 58.00 0 0 1000.0
`

// goodBaseline mirrors the committed BENCH_sim.json line format.
const goodBaseline = `{"benchmark":"BenchmarkBottleneckDropTail","ns_op":13.69,"bytes_op":0,"allocs_op":0}
{"benchmark":"BenchmarkBottleneckSteadyState","ns_op":57.00,"bytes_op":0,"allocs_op":0}
`

// runCheck executes scripts/bench.sh -check with the given baseline and
// raw-results contents, returning combined output and the exit error.
func runCheck(t *testing.T, baseline, raw string, env ...string) (string, error) {
	t.Helper()
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("bash not available")
	}
	dir := t.TempDir()
	simOut := filepath.Join(dir, "BENCH_sim.json")
	if baseline != "-" { // "-" = do not create the baseline file
		if err := os.WriteFile(simOut, []byte(baseline), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rawPath := filepath.Join(dir, "raw.txt")
	if raw != "-" {
		if err := os.WriteFile(rawPath, []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "scripts/bench.sh", "-check")
	cmd.Env = append(os.Environ(),
		"BENCH_SIM_OUT="+simOut,
		"BENCH_CHECK_RAW="+rawPath,
	)
	cmd.Env = append(cmd.Env, env...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestBenchCheckPassesOnCleanRun(t *testing.T) {
	out, err := runCheck(t, goodBaseline, goodRaw)
	if err != nil {
		t.Fatalf("clean run must pass, got error %v:\n%s", err, out)
	}
	if !strings.Contains(out, "bench-check: OK") {
		t.Fatalf("expected OK, got:\n%s", out)
	}
}

func TestBenchCheckFailsOnMissingBaseline(t *testing.T) {
	out, err := runCheck(t, "-", goodRaw)
	if err == nil {
		t.Fatalf("missing baseline must fail:\n%s", out)
	}
	if !strings.Contains(out, "no committed") {
		t.Fatalf("expected missing-baseline message, got:\n%s", out)
	}
}

func TestBenchCheckFailsOnEmptyBaseline(t *testing.T) {
	out, err := runCheck(t, "", goodRaw)
	if err == nil {
		t.Fatalf("empty baseline must fail:\n%s", out)
	}
	if !strings.Contains(out, "not a valid baseline") {
		t.Fatalf("expected empty-baseline message, got:\n%s", out)
	}
}

func TestBenchCheckFailsOnMalformedBaseline(t *testing.T) {
	malformed := goodBaseline + "{\"benchmark\":\"BenchmarkBroken\"}\n"
	out, err := runCheck(t, malformed, goodRaw)
	if err == nil {
		t.Fatalf("malformed baseline must fail:\n%s", out)
	}
	if !strings.Contains(out, "malformed") {
		t.Fatalf("expected malformed-baseline message, got:\n%s", out)
	}
}

// TestBenchCheckFailsOnEmptyResults is THE vacuous-pass regression: an
// empty benchmark reduction used to sail through as OK.
func TestBenchCheckFailsOnEmptyResults(t *testing.T) {
	out, err := runCheck(t, goodBaseline, "")
	if err == nil {
		t.Fatalf("empty results must fail (the vacuous-pass bug):\n%s", out)
	}
	if !strings.Contains(out, "no results") {
		t.Fatalf("expected empty-results message, got:\n%s", out)
	}
}

func TestBenchCheckFailsOnNsRegression(t *testing.T) {
	slow := strings.Replace(goodRaw, "14.00", "40.00", 1)
	out, err := runCheck(t, goodBaseline, slow)
	if err == nil {
		t.Fatalf("3x ns/op regression must fail:\n%s", out)
	}
	if !strings.Contains(out, "regressed") {
		t.Fatalf("expected regression message, got:\n%s", out)
	}
}

func TestBenchCheckFailsOnAllocIncrease(t *testing.T) {
	alloc := strings.Replace(goodRaw, "14.00 0 0", "14.00 0 2", 1)
	out, err := runCheck(t, goodBaseline, alloc)
	if err == nil {
		t.Fatalf("allocs/op increase must fail:\n%s", out)
	}
	if !strings.Contains(out, "allocates more") {
		t.Fatalf("expected alloc message, got:\n%s", out)
	}
}

// TestBenchCheckFailsOnMissingBenchmark: the baseline names a benchmark
// the fresh run no longer produces (renamed, or the -bench pattern
// narrowed) — the gate must notice it stopped guarding it.
func TestBenchCheckFailsOnMissingBenchmark(t *testing.T) {
	onlyOne := "BenchmarkBottleneckDropTail 14.00 0 0 -1.0\n"
	out, err := runCheck(t, goodBaseline, onlyOne)
	if err == nil {
		t.Fatalf("baseline benchmark missing from run must fail:\n%s", out)
	}
	if !strings.Contains(out, "missing from this run") {
		t.Fatalf("expected coverage message, got:\n%s", out)
	}
}

func TestBenchCheckToleranceOverride(t *testing.T) {
	slow := strings.Replace(goodRaw, "14.00", "20.00", 1) // ~1.46x baseline
	if out, err := runCheck(t, goodBaseline, slow); err == nil {
		t.Fatalf("1.46x must fail at default tolerance:\n%s", out)
	}
	out, err := runCheck(t, goodBaseline, slow, "BENCH_NS_TOLERANCE=1.50")
	if err != nil {
		t.Fatalf("1.46x must pass at 1.50 tolerance, got %v:\n%s", err, out)
	}
}

// hostBaseline is goodBaseline as scripts/bench.sh sim now writes it:
// each line carries the facts of the host that measured it.
const hostBaseline = `{"benchmark":"BenchmarkBottleneckDropTail","ns_op":13.69,"bytes_op":0,"allocs_op":0,"host_nproc":64,"host_cpu":"Example CPU @ 3.0GHz","host_go":"go1.99.0"}
{"benchmark":"BenchmarkBottleneckSteadyState","ns_op":57.00,"bytes_op":0,"allocs_op":0,"host_nproc":64,"host_cpu":"Example CPU @ 3.0GHz","host_go":"go1.99.0"}
`

// TestBenchCheckHostFacts: host facts on baseline lines parse, and a
// regression names both the baseline's host and this one, so a
// cross-host comparison is visible as such.
func TestBenchCheckHostFacts(t *testing.T) {
	if out, err := runCheck(t, hostBaseline, goodRaw); err != nil {
		t.Fatalf("clean run against a baseline with host facts must pass, got %v:\n%s", err, out)
	}
	slow := strings.Replace(goodRaw, "14.00", "40.00", 1)
	out, err := runCheck(t, hostBaseline, slow)
	if err == nil {
		t.Fatalf("3x ns/op regression must fail:\n%s", out)
	}
	for _, want := range []string{
		"baseline host of BenchmarkBottleneckDropTail: nproc=64 cpu=Example CPU @ 3.0GHz go=go1.99.0",
		"bench-check: this host: nproc=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("regression report lacks %q:\n%s", want, out)
		}
	}
	// A line without host facts (the format before they were recorded)
	// says so instead of guessing.
	out, _ = runCheck(t, goodBaseline, slow)
	if !strings.Contains(out, "baseline host of BenchmarkBottleneckDropTail: not recorded") {
		t.Fatalf("regression against a baseline without host facts must say so:\n%s", out)
	}
}

// TestBenchCheckRefusalsWithHostFacts: host facts do not weaken the
// malformed-line and empty-reduction refusals.
func TestBenchCheckRefusalsWithHostFacts(t *testing.T) {
	malformed := hostBaseline + `{"benchmark":"BenchmarkBroken","host_nproc":64,"host_cpu":"x","host_go":"go1.99.0"}` + "\n"
	out, err := runCheck(t, malformed, goodRaw)
	if err == nil || !strings.Contains(out, "malformed") {
		t.Fatalf("malformed baseline line with host facts must be refused (err %v):\n%s", err, out)
	}
	out, err = runCheck(t, hostBaseline, "")
	if err == nil || !strings.Contains(out, "no results") {
		t.Fatalf("empty reduction must be refused (err %v):\n%s", err, out)
	}
}
