// Command perfbench is Seabed's end-to-end benchmark.
//
// Each run generates a seeded dataset, starts three seabed-server daemons in
// this process on loopback, reaches them through the replicated fleet
// coordinator (R=2, hedging off) and drives the public proxy API —
// CreatePlan, Upload, Append, Query — in Seabed mode. It times every
// operation with its own wall clock and checks every result against a
// plaintext oracle computed here, from the generated rows, without the
// engine. With -trace 1 it instead reruns the workload's mix once with spans
// around each layer's public functions and reports per-layer numbers.
// METRICS.md documents every metric, its layer, and why each workload exists.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload ada-dashboard --seed 1 --seconds 45 --trace 0
//
// A human-readable report goes to standard output; its last line is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the dataset and append batches are generated from")
	seconds := flag.Int("seconds", 45, "length of the timed closed loop, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the timed loop")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	scratch, err := os.MkdirTemp(".bench_build", "perfbench-run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(scratch)

	ctx := context.Background()
	var rep *report
	if *trace == 1 {
		rep, err = runTraced(ctx, w, *seed, scratch)
	} else {
		rep, err = runTimed(ctx, w, *seed, time.Duration(*seconds)*time.Second, scratch)
	}
	if err != nil {
		os.RemoveAll(scratch)
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printMetrics(rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.RemoveAll(scratch)
		os.Exit(1)
	}
}

// printMetrics lists every reported metric by name with its unit.
func printMetrics(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("metrics:")
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  %-34s %14.4f ratio (%d of %d operations)\n", "failed_frac",
		float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted)
}
