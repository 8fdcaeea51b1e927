package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// fingerprint holds a run's seed-determined counts: PRF evaluations, result
// bytes, groups, rows scanned, encrypted and durably written bytes. For one
// binary and seed they must not change from run to run; a change is
// nondeterminism in the program, not measurement noise.
type fingerprint map[string]uint64

func (f fingerprint) set(key string, v uint64) { f[key] = v }

// diff lists the keys on which f and other disagree.
func (f fingerprint) diff(other fingerprint) []string {
	var out []string
	for k, v := range f {
		if ov, ok := other[k]; !ok || ov != v {
			out = append(out, fmt.Sprintf("%s: %d, earlier %d (present %v)", k, v, ov, ok))
		}
	}
	for k := range other {
		if _, ok := f[k]; !ok {
			out = append(out, fmt.Sprintf("%s: missing, earlier %d", k, other[k]))
		}
	}
	sort.Strings(out)
	return out
}

// check compares f with the fingerprint an earlier run of this binary left
// for the same workload, seed and mode, or records f if there is none.
func (f fingerprint) check(workload string, seed int64, trace int) error {
	id, err := binaryID()
	if err != nil {
		return fmt.Errorf("drift check: %w", err)
	}
	dir := filepath.Join(".bench_build", "perfbench", "drift")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("drift check: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-trace%d.json", id, workload, seed, trace))
	if data, err := os.ReadFile(path); err == nil {
		var earlier fingerprint
		if err := json.Unmarshal(data, &earlier); err != nil {
			return fmt.Errorf("drift check: %s: %w", path, err)
		}
		if d := f.diff(earlier); len(d) > 0 {
			return fmt.Errorf("NONDETERMINISM: seed-determined counts changed between runs of the same binary and seed: %v", d)
		}
		return nil
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// binaryID is a short hash of the running executable, so counts recorded by
// one build are never compared with another build's.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
