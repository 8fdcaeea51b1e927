package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"seabed/internal/client"
	"seabed/internal/engine"
	"seabed/internal/fleet"
)

// runTraced is the per-layer run: one set-up through the timing wrapper, the
// workload's writes with each write-path layer measured, then the mix run
// untraced through Proxy.Query and traced through the layers, the same
// number of times each.
func runTraced(ctx context.Context, w *benchWorkload, seed int64, scratch string) (*report, error) {
	ds, err := w.build(seed)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	var tb *timedBackend
	e, _, err := setUp(ctx, w, ds, filepath.Join(scratch, "setup"), func(fc *fleet.Cluster) client.ClusterBackend {
		tb = &timedBackend{Cluster: fc, rec: rec}
		return tb
	})
	if err != nil {
		return nil, err
	}
	defer e.close()

	wp := &writePath{}
	probe := filepath.Join(scratch, "durable-probe")
	writeSpan := "fleet.RegisterTable"
	if ds.batches != nil {
		writeSpan = "fleet.AppendTable"
		err = tracedAppends(ctx, e, ds, rec, probe, wp)
	} else {
		err = measureUploadWrites(e, ds, rec, tb, probe, wp)
	}
	if err != nil {
		return nil, fmt.Errorf("write path: %w", err)
	}
	rec.mu.Lock()
	for _, s := range rec.spans {
		if s.Name == writeSpan {
			wp.fleetWrites = append(wp.fleetWrites, ms(s.dur()))
		}
	}
	rec.mu.Unlock()

	cnt := &counter{}
	fp := fingerprint{}
	if err := warmPass(ctx, e, ds, cnt, fp); err != nil {
		return nil, err
	}
	passes := (tracedQueries + len(ds.mix) - 1) / len(ds.mix)
	untraced := map[string][]float64{}
	var untracedAll []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for p := 0; p < passes; p++ {
		for _, q := range ds.mix {
			o, err := runQuery(ctx, e.proxy, q)
			if err == nil {
				err = verify(q, o.rows, false)
			}
			cnt.add(err)
			if err == nil {
				untraced[q.name] = append(untraced[q.name], ms(o.wall))
				untracedAll = append(untracedAll, ms(o.wall))
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	mc := engine.NewCluster(engine.Config{})
	var traces [][]*queryTrace
	for p := 0; p < passes; p++ {
		var pass []*queryTrace
		for _, q := range ds.mix {
			t, err := tracedQuery(ctx, e, tb, mc, rec, q)
			if err == nil {
				err = verify(q, t.rows, p == 0)
			}
			cnt.add(err)
			if err != nil {
				continue
			}
			t.rows = nil
			pass = append(pass, t)
		}
		traces = append(traces, pass)
	}
	if len(traces[0]) == 0 {
		return nil, fmt.Errorf("no traced query completed: %v", cnt.first)
	}

	// Drift: every pass must repeat the first pass's counts exactly, and the
	// first pass must repeat what an earlier run of this binary recorded.
	for p := 1; p < len(traces); p++ {
		for i, t := range traces[p] {
			if i >= len(traces[0]) {
				break
			}
			f := traces[0][i]
			if f.prf != t.prf || f.resultBytes != t.resultBytes || f.groups != t.groups || f.scanned != t.scanned {
				cnt.add(fmt.Errorf("NONDETERMINISM: %s counts differ between traced passes 1 and %d: prf %d/%d, result bytes %d/%d, groups %d/%d, rows scanned %d/%d",
					t.name, p+1, f.prf, t.prf, f.resultBytes, t.resultBytes, f.groups, t.groups, f.scanned, t.scanned))
			}
		}
	}
	for _, t := range traces[0] {
		fp.set("result_bytes/"+t.name, t.resultBytes)
		fp.set("mirror_groups_out/"+t.name, t.groups)
	}
	encBytes, encRows := encryptedSize(e, ds)
	fp.set("encrypted_bytes", encBytes)
	fp.set("encrypted_rows", encRows)
	fp.set("durable_bytes_written", uint64(wp.durableBytes))
	fp.set("durable_rows", uint64(wp.durableRows))
	fp.set("wire_append_bytes", uint64(wp.appendBytes))
	cnt.add(fp.check(w.name, seed, 1))

	rep := &report{Correct: cnt.failed == 0, Attempted: cnt.attempted, Failed: cnt.failed}
	var all []*queryTrace
	for _, pass := range traces {
		all = append(all, pass...)
	}
	med := func(f func(*queryTrace) float64) float64 {
		xs := make([]float64, len(all))
		for i, t := range all {
			xs[i] = f(t)
		}
		return quantile(xs, 0.5)
	}
	var engineNs, scanned, selected, decNs, outRows, prf, resBytes, groups uint64
	for _, t := range all {
		engineNs += uint64(t.engine)
		scanned += t.scanned
		selected += t.selected
		decNs += uint64(t.decrypt)
		outRows += t.groups
	}
	for _, t := range traces[0] {
		prf += t.prf
		resBytes += t.resultBytes
		groups += t.groups
	}
	n0 := float64(len(traces[0]))
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	tracedP50 := med(func(t *queryTrace) float64 { return ms(t.wall) })
	untracedP50 := quantile(untracedAll, 0.5)

	rep.set("sqlparse.parse_us", med(func(t *queryTrace) float64 { return us(t.parse) }), "us")
	rep.set("translate.us", med(func(t *queryTrace) float64 { return us(t.translate) }), "us")
	rep.set("wire.plan_encode_us", med(func(t *queryTrace) float64 { return us(t.planEnc) }), "us")
	rep.set("fleet.run_ms", med(func(t *queryTrace) float64 { return ms(t.fleet) }), "ms")
	rep.set("fleet.unaccounted_ms", med(func(t *queryTrace) float64 { return ms(t.unaccounted()) }), "ms")
	rep.set("engine.run_ms", med(func(t *queryTrace) float64 { return ms(t.engine) }), "ms")
	rep.set("engine.ns_per_row_scanned", float64(engineNs)/float64(max(scanned, 1)), "ns")
	rep.set("engine.rows_selected_frac", float64(selected)/float64(max(scanned, 1)), "ratio")
	rep.set("engine.merge_ms", med(func(t *queryTrace) float64 { return ms(t.merge) }), "ms")
	rep.set("engine.groups_out", float64(groups)/n0, "count")
	rep.set("wire.result_encode_ms", med(func(t *queryTrace) float64 { return ms(t.resEnc) }), "ms")
	rep.set("wire.result_decode_ms", med(func(t *queryTrace) float64 { return ms(t.resDec) }), "ms")
	rep.set("wire.result_bytes_per_query", float64(resBytes)/n0, "bytes")
	rep.set("client.decrypt_ms", med(func(t *queryTrace) float64 { return ms(t.decrypt) }), "ms")
	rep.set("client.decrypt_ns_per_group", float64(decNs)/float64(max(outRows, 1)), "ns")
	rep.set("client.prf_evals_per_query", float64(prf)/n0, "count")
	rep.set("obs.trace_overhead_frac", (tracedP50-untracedP50)/untracedP50, "ratio")
	rep.set("process.alloc_mb_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(max(len(untracedAll), 1)), "MB")

	srvErrs, hits, misses := e.serverStats()
	fst := e.fleet.Stats()
	rep.set("engine.plan_cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	rep.set("fleet.hedges", float64(fst.Hedges), "count")
	rep.set("fleet.failovers", float64(fst.Failovers), "count")
	rep.set("server.errors", float64(srvErrs), "count")

	rep.set("client.encrypt_ns_per_row", float64(wp.encryptNs)/float64(max(wp.encryptRows, 1)), "ns")
	rep.set("wire.append_bytes_per_row", float64(wp.appendBytes)/float64(max(wp.appendRows, 1)), "bytes")
	rep.set("fleet.write_ms", quantile(wp.fleetWrites, 0.5), "ms")
	var durNs time.Duration
	for _, d := range wp.durableAppends {
		durNs += d
	}
	rep.set("durable.append_us_per_krow", us(durNs)/(float64(max(wp.durableRows, 1))/1000), "us")
	rep.set("durable.bytes_written_per_row", float64(wp.durableBytes)/float64(max(wp.durableRows, 1)), "bytes")
	rep.set("durable.segments_created", float64(wp.segments), "count")
	rep.set("store.encrypted_bytes_per_row", float64(encBytes)/float64(max(encRows, 1)), "bytes")

	fmt.Printf("workload %s seed %d: traced run, %d pass(es) of %d queries each way\n", w.name, seed, passes, len(ds.mix))
	printSelfTimes(traces[0], untraced)
	fmt.Printf("query p50: untraced %.3f ms, traced %.3f ms; obs.trace_overhead_frac %.4f\n",
		untracedP50, tracedP50, rep.Metrics["obs.trace_overhead_frac"].Value)
	if err := rec.write(w.name, seed); err != nil {
		fmt.Printf("spans not written: %v\n", err)
	}
	if cnt.first != nil {
		fmt.Printf("FAILED: %v\n", cnt.first)
	}
	return rep, nil
}

// printSelfTimes lists one pass's per-layer self times per query, next to
// the query's untraced wall time. The columns after "traced" add up to it:
// the fleet's time is split into the mirror-measured engine, merge and wire
// times and the named fleet.unaccounted_ms gap.
func printSelfTimes(pass []*queryTrace, untraced map[string][]float64) {
	cols := []string{"harness", "sqlparse", "translate", "engine.run", "engine.merge", "wire", "fleet.unaccounted", "client.decrypt"}
	fmt.Printf("per-layer self times, ms (one traced pass):\n  %-10s %9s %9s", "query", "untraced", "traced")
	for _, c := range cols {
		fmt.Printf(" %*s", max(len(c), 9), c)
	}
	fmt.Println()
	totals := make([]float64, len(cols))
	var totWall, totUntraced, worstGap float64
	for _, t := range pass {
		parts := []time.Duration{t.harness, t.parse, t.translate, t.engine, t.merge, t.wire(), t.unaccounted(), t.decrypt}
		u := quantile(untraced[t.name], 0.5)
		fmt.Printf("  %-10s %9.3f %9.3f", t.name, u, ms(t.wall))
		var sum time.Duration
		for i, d := range parts {
			fmt.Printf(" %*.3f", max(len(cols[i]), 9), ms(d))
			totals[i] += ms(d)
			sum += d
		}
		fmt.Println()
		worstGap = max(worstGap, abs(ms(sum-t.wall)))
		totWall += ms(t.wall)
		totUntraced += u
	}
	fmt.Printf("  %-10s %9.3f %9.3f", "pass", totUntraced, totWall)
	for i, c := range cols {
		fmt.Printf(" %*.3f", max(len(c), 9), totals[i])
	}
	fmt.Printf("\n  self times + fleet.unaccounted cover each traced wall to within %.6f ms\n", worstGap)
	fmt.Printf("  layer shares of the pass: %s\n", shares(cols, totals, totWall))
}

func shares(cols []string, totals []float64, wall float64) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.1f%%", c, 100*totals[i]/wall)
	}
	return b.String()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
