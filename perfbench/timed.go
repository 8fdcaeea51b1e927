package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"seabed/internal/client"
	"seabed/internal/translate"
)

// A run sets up setupRepeats times; setup_s is the median. The last
// replicates set-ups each serve one share of the timed loop, so a run's
// figures average over several sets of daemons, heaps and connections
// instead of resting on one. Five replicates keep each share under ten
// seconds, so the ingest writer grows each fresh table by about a dozen
// batches.
const (
	setupRepeats = 6
	replicates   = 5
)

// sample is one completed query of the timed loop; times are in ms, Start
// from the start of its replicate's loop.
type sample struct {
	Replicate int     `json:"replicate"`
	Client    int     `json:"client"`
	Pass      int     `json:"pass"`
	Query     string  `json:"query"`
	Stream    bool    `json:"stream"`
	Start     float64 `json:"start_ms"`
	Wall      float64 `json:"wall_ms"`
	First     float64 `json:"first_ms"`
}

// outcome is one query as its client saw it.
type outcome struct {
	rows []client.Row
	// wall runs from Proxy.Query to the last row drained; first to the
	// first decrypted row.
	wall, first time.Duration
	prf         uint64
	scanned     uint64
}

func queryOptions(q *query) []client.QueryOption {
	var opts []client.QueryOption
	if q.groups > 0 {
		opts = append(opts, client.WithExpectedGroups(q.groups))
	}
	if q.stream {
		opts = append(opts, client.WithStreaming())
	}
	return opts
}

// runQuery runs q through the proxy and drains its rows.
func runQuery(ctx context.Context, p *client.Proxy, q *query) (*outcome, error) {
	start := time.Now()
	res, err := p.Query(ctx, q.sql, queryOptions(q)...)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	for row, err := range res.Rows() {
		if err != nil {
			return nil, err
		}
		if o.first == 0 {
			o.first = time.Since(start)
		}
		o.rows = append(o.rows, row)
	}
	o.wall = time.Since(start)
	if o.first == 0 {
		o.first = o.wall
	}
	o.prf, o.scanned = res.PRFEvals, res.Metrics.RowsScanned
	return o, nil
}

// warmPass runs every distinct query of the mix once, untimed, checks each
// result in full and records its seed-determined counts for the drift check.
func warmPass(ctx context.Context, e *env, ds *dataset, cnt *counter, fp fingerprint) error {
	for _, q := range ds.mix {
		o, err := runQuery(ctx, e.proxy, q)
		if err != nil {
			return fmt.Errorf("warm %s: %w", q.name, err)
		}
		cnt.add(verify(q, o.rows, true))
		fp.set("prf_evals/"+q.name, o.prf)
		fp.set("rows_scanned/"+q.name, o.scanned)
		fp.set("groups_out/"+q.name, uint64(len(o.rows)))
	}
	return nil
}

func runTimed(ctx context.Context, w *benchWorkload, seed int64, dur time.Duration, scratch string) (*report, error) {
	ds, err := w.build(seed)
	if err != nil {
		return nil, err
	}
	cnt := &counter{}
	var (
		setups  []float64
		loops   []*loopResult
		fp      fingerprint
		elapsed time.Duration
		stored  float64
	)
	cpuT0, cpuS0 := readCPU()
	for i := 0; i < setupRepeats; i++ {
		e, d, err := setUp(ctx, w, ds, filepath.Join(scratch, fmt.Sprintf("setup%d", i)), nil)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, d.Seconds())
		if i >= setupRepeats-replicates {
			var lr *loopResult
			lr, err = replicate(ctx, w, ds, e, dur/replicates, cnt)
			if err == nil {
				loops = append(loops, lr)
				elapsed += lr.elapsed
				stored = lr.stored
				// Every replicate must repeat the first one's counts.
				if fp == nil {
					fp = lr.fp
				} else if d := lr.fp.diff(fp); len(d) > 0 {
					cnt.add(fmt.Errorf("NONDETERMINISM: seed-determined counts differ between replicates: %v", d))
				}
			}
		}
		if cerr := e.close(); err == nil && cerr != nil {
			err = fmt.Errorf("tear down set-up %d: %w", i, cerr)
		}
		if err != nil {
			return nil, err
		}
		runtime.GC()
	}
	cpuT1, cpuS1 := readCPU()
	cnt.add(fp.check(w.name, seed, 0))
	if cnt.first != nil {
		fmt.Printf("FAILED: %v\n", cnt.first)
	}

	var samples []sample
	var appends []float64
	var appendedRows int
	var maxLate time.Duration
	for r, lr := range loops {
		for _, s := range lr.samples {
			s.Replicate = r
			samples = append(samples, s)
		}
		if lr.led != nil {
			for _, d := range lr.led.latencies {
				appends = append(appends, ms(d))
			}
			appendedRows += lr.led.ackedRows
			maxLate = max(maxLate, lr.led.maxLate)
		}
	}
	if len(samples) == 0 {
		return nil, errors.New("no query completed")
	}
	if err := writeJSON(w.name, seed, "samples", samples); err != nil {
		fmt.Printf("samples not written: %v\n", err)
	}
	walls, p50, firstRow := summarize(samples)
	rep := &report{Correct: cnt.failed == 0, Attempted: cnt.attempted, Failed: cnt.failed}
	rep.set("query_p50_ms", p50, "ms")
	rep.set("query_p90_ms", quantile(walls, 0.9), "ms")
	rep.set("queries_per_s", float64(len(walls))/elapsed.Seconds(), "1/s")
	rep.set("setup_s", quantile(setups, 0.5), "s")
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	rep.set("stored_bytes_per_plain_byte", stored, "ratio")

	fmt.Printf("workload %s seed %d: %d queries in %.2fs (%d replicates) by %d client(s), closed loop, Seabed mode, fleet of %d daemons at R=%d\n",
		w.name, seed, len(walls), elapsed.Seconds(), len(loops), w.clients, daemons, replicas)
	fmt.Printf("  query samples %d (%d beyond p90); cpu steal during the run %.1f%%\n",
		len(walls), len(walls)-int(0.9*float64(len(walls))), 100*stealFrac(cpuT0, cpuS0, cpuT1, cpuS1))
	if firstRow > 0 {
		fmt.Printf("  %-34s %14.4f ms (streamed scans)\n", "first_row_ms", firstRow)
	}
	if ds.batches != nil {
		fmt.Printf("  append (FsyncBatch durable daemons, %d-row batches, one due every %v): %d batches, sent at most %.1f ms late\n",
			appendBatchRows, appendInterval, len(appends), ms(maxLate))
		fmt.Printf("  %-34s %14.4f rows/s\n", "append_rows_per_s", float64(appendedRows)/elapsed.Seconds())
		fmt.Printf("  %-34s %14.4f ms\n", "append_p50_ms", quantile(appends, 0.5))
		fmt.Printf("  %-34s %14.4f ms\n", "append_p90_ms", quantile(appends, 0.9))
	}
	return rep, nil
}

// loopResult is one replicate's share of the timed loop.
type loopResult struct {
	samples []sample
	led     *ledger
	elapsed time.Duration
	fp      fingerprint
	// stored is the daemons' resident bytes per plaintext byte at the end.
	stored float64
}

// replicate runs one share of the timed loop on a fresh set-up: the warm
// pass, then the closed-loop clients (and, for ingest, the paced writer)
// for dur.
func replicate(ctx context.Context, w *benchWorkload, ds *dataset, e *env, dur time.Duration, cnt *counter) (*loopResult, error) {
	lr := &loopResult{fp: fingerprint{}}
	if err := warmPass(ctx, e, ds, cnt, lr.fp); err != nil {
		return nil, err
	}
	encBytes, encRows := encryptedSize(e, ds)
	lr.fp.set("encrypted_bytes", encBytes)
	lr.fp.set("encrypted_rows", encRows)
	if ds.batches != nil {
		lr.led = newLedger(ds)
	}
	led := lr.led
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			offset := c * len(ds.mix) / w.clients
			for pass := 0; time.Since(start) < dur; pass++ {
				for j := range ds.mix {
					q := ds.mix[(offset+j)%len(ds.mix)]
					var lo int64
					if led != nil {
						lo = led.low()
					}
					qs := time.Since(start)
					o, err := runQuery(ctx, e.proxy, q)
					if err == nil {
						if led != nil {
							err = checkReader(o.rows, lo, led.high())
						} else {
							err = verify(q, o.rows, false)
						}
					}
					cnt.add(err)
					if err != nil {
						continue
					}
					mu.Lock()
					lr.samples = append(lr.samples, sample{
						Client: c, Pass: pass, Query: q.name, Stream: q.stream,
						Start: ms(qs), Wall: ms(o.wall), First: ms(o.first),
					})
					mu.Unlock()
				}
			}
		}(c)
	}
	var writerErr error
	if led != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writerErr = runWriter(ctx, e, ds, led, cnt, start, dur)
		}()
	}
	wg.Wait()
	lr.elapsed = time.Since(start)
	if writerErr != nil {
		return nil, writerErr
	}
	plain := ds.plainBytes()
	if led != nil {
		// Quiescent: the table now holds exactly the acknowledged batches.
		o, err := runQuery(ctx, e.proxy, ds.reader)
		if err == nil {
			err = checkReader(o.rows, led.low(), led.low())
		}
		cnt.add(err)
		for i := 0; i < led.acked; i++ {
			plain += plainBytes(ds.batches[i%len(ds.batches)])
		}
	}
	lr.stored = float64(e.residentBytes()) / float64(plain)
	return lr, nil
}

// appendInterval paces the ingest writer: an ingest feed is an independent
// producer, so batches are due on a fixed schedule (an open loop) and each
// append's latency runs from when it was due. A fixed schedule also grows
// the reader's table by the same rows in every run.
const appendInterval = 750 * time.Millisecond

// runWriter is the ingest workload's appender: pre-generated batches in
// rotation, one due every appendInterval until the run's time is up.
func runWriter(ctx context.Context, e *env, ds *dataset, led *ledger, cnt *counter, start time.Time, dur time.Duration) error {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * appendInterval)
		if due.Sub(start) >= dur {
			break
		}
		time.Sleep(time.Until(due))
		b := ds.batches[i%len(ds.batches)]
		led.begin(time.Since(due))
		err := e.proxy.Append(ctx, ds.fact, b, translate.Seabed)
		cnt.add(err)
		if err != nil {
			// A failed append leaves the ledger unable to bound reads.
			return fmt.Errorf("append batch %d: %w", i, err)
		}
		led.ack(int(b.NumRows()), time.Since(due))
	}
	return nil
}

// encryptedSize sums the proxy's encrypted tables.
func encryptedSize(e *env, ds *dataset) (bytes, rows uint64) {
	for _, t := range ds.tables {
		enc, err := e.proxy.Table(t.name, translate.Seabed)
		if err != nil {
			continue
		}
		bytes += enc.MemBytes()
		rows += enc.NumRows()
	}
	return bytes, rows
}
