package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Output checks that span runs. A run's report digest and its exact
// counts (trial attempts, engine events, bottleneck packets, journal
// records, ...) are pure functions of (workload, seed, seconds). The
// first run of a triple stores them under .bench_build/outputs/ in the
// checkout; every later run of the triple, traced or not, must
// reproduce every value it shares with the stored record. For the
// default seed the report digest is also committed in digests.json.

// defaultSeed and defaultSeconds are the inputs digests.json records.
const (
	defaultSeed    = 1
	defaultSeconds = 35
)

//go:embed digests.json
var committedDigests []byte

// reportDigest is the SHA-256 of the concatenated report texts.
func reportDigest(texts []string) string {
	h := sha256.New()
	for _, t := range texts {
		h.Write([]byte(t))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// committedDigest returns the digest digests.json records for the
// workload at the default inputs, or "" if none is recorded.
func committedDigest(workload string) (string, error) {
	var m map[string]string
	if err := json.Unmarshal(committedDigests, &m); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	return m[workload], nil
}

// mergeRecord checks got against stored: every key present in both
// must carry the same value. It returns stored extended with got's new
// keys, and one message per mismatch.
func mergeRecord(stored, got map[string]string) (map[string]string, []string) {
	merged := map[string]string{}
	for k, v := range stored {
		merged[k] = v
	}
	var bad []string
	for k, v := range got {
		if old, ok := stored[k]; ok && old != v {
			bad = append(bad, fmt.Sprintf("%s = %s, earlier run had %s", k, v, old))
			continue
		}
		merged[k] = v
	}
	sort.Strings(bad)
	return merged, bad
}

// checkRecord merges got into the record file at path and returns the
// mismatches.
func checkRecord(path string, got map[string]string) ([]string, error) {
	stored := map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &stored); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	merged, bad := mergeRecord(stored, got)
	b, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, err
	}
	return bad, os.Rename(tmp, path)
}

// recordPath names the cross-run record of one (workload, seed,
// seconds) triple.
func recordPath(buildDir, workload string, seed uint64, seconds int) string {
	name := strings.Join([]string{workload, fmt.Sprint(seed), fmt.Sprint(seconds)}, "_") + ".json"
	return filepath.Join(buildDir, "outputs", name)
}

func parseInt(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }
