package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs by linear interpolation between closest
// ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// summarize returns every query's wall time, the median over passes of each
// pass's median wall time, and the same for the time to the first row of
// the streamed scans (0 when the mix streams none). A pass is one client's
// run through the whole mix in one replicate; taking the median per pass
// first keeps the estimate from landing between two clusters of a mix of
// fast and slow queries.
func summarize(samples []sample) (walls []float64, p50, firstRow float64) {
	type passKey struct{ replicate, client, pass int }
	passWalls := map[passKey][]float64{}
	passFirsts := map[passKey][]float64{}
	for _, s := range samples {
		k := passKey{s.Replicate, s.Client, s.Pass}
		walls = append(walls, s.Wall)
		passWalls[k] = append(passWalls[k], s.Wall)
		if s.Stream {
			passFirsts[k] = append(passFirsts[k], s.First)
		}
	}
	medians := func(m map[passKey][]float64) []float64 {
		var out []float64
		for _, xs := range m {
			out = append(out, quantile(xs, 0.5))
		}
		return out
	}
	return walls, quantile(medians(passWalls), 0.5), quantile(medians(passFirsts), 0.5)
}

// readCPU returns the machine's cumulative CPU ticks from /proc/stat: the
// total and the part stolen by the hypervisor for other guests.
func readCPU() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(fields[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// stealFrac is the share of CPU time stolen between two readCPU readings.
func stealFrac(t0, s0, t1, s1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	return (s1 - s0) / (t1 - t0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB. The proxy
// and the daemons share the process.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
