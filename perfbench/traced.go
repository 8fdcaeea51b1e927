package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"seabed/internal/client"
	"seabed/internal/durable"
	"seabed/internal/engine"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
	"seabed/internal/translate"
	"seabed/internal/wire"
)

// tracedQueries is the least number of queries each traced mode (untraced
// through Proxy.Query, traced through the layers) runs; whole passes of the
// mix are run until it is reached.
const tracedQueries = 20

// queryTrace is one traced query: the wall time and per-layer times of its
// own path (parse, translate, fleet, decrypt), and the layer times of its
// mirror replay that split the fleet's share.
type queryTrace struct {
	name                                   string
	wall, parse, translate, fleet, decrypt time.Duration
	harness                                time.Duration
	// Mirror replay: the engine runs of the per-range plans (concurrently,
	// as on the daemons), their merge, and the wire work of plans out and
	// partial results back.
	engine, merge, planEnc, resEnc, resDec time.Duration
	resultBytes, groups, scanned, selected uint64
	prf                                    uint64
	rows                                   []client.Row
}

// wire is the query's wire time on the fleet path.
func (t *queryTrace) wire() time.Duration { return t.planEnc + t.resEnc + t.resDec }

// unaccounted is the part of the fleet's time no measured layer explains:
// transport, daemon decode/compile, scheduling.
func (t *queryTrace) unaccounted() time.Duration {
	return t.fleet - t.engine - t.merge - t.wire()
}

// tracedQuery runs q the way Proxy.Query does, calling each layer's public
// function itself under a span, then replays the fleet's share on the
// in-process mirror.
func tracedQuery(ctx context.Context, e *env, tb *timedBackend, mc *engine.Cluster, rec *recorder, q *query) (*queryTrace, error) {
	t := &queryTrace{name: q.name}
	root := rec.begin(-1, "query "+q.name)
	var (
		tr  *translate.Translation
		res *engine.Result
		dec *client.Result
	)
	err := func() (err error) {
		var stmt *sqlparse.Statement
		t.parse = rec.timed(root, "sqlparse.ParseStatement", func() { stmt, err = sqlparse.ParseStatement(q.sql) })
		if err != nil {
			return err
		}
		t.translate = rec.timed(root, "translate.Translate", func() {
			tr, err = translate.Translate(stmt.Query, e.proxy, e.proxy.Ring(), translate.Seabed,
				translate.Options{Workers: tb.Workers(), ExpectedGroups: q.groups})
		})
		if err != nil {
			return err
		}
		rctx := withParent(ctx, root)
		if q.stream {
			var scan []engine.ScanRow
			res, err = tb.RunStream(rctx, tr.Server, func(rows []engine.ScanRow) error {
				scan = append(scan, rows...)
				return nil
			})
			if err == nil {
				res.Scan = scan
			}
		} else {
			res, err = tb.Run(rctx, tr.Server)
		}
		if err != nil {
			return err
		}
		t.decrypt = rec.timed(root, "client.Decrypt", func() { dec, err = client.Decrypt(tr, res, e.proxy.Ring()) })
		return err
	}()
	t.wall = rec.end(root)
	if err != nil {
		return nil, err
	}
	self := rec.selfTimes(root)
	t.fleet = self["fleet.Run"] + self["fleet.RunStream"]
	t.harness = self["query "+q.name]
	t.rows, t.prf = dec.Rows, dec.PRFEvals
	t.scanned, t.selected = res.Metrics.RowsScanned, res.Metrics.RowsSelected
	return t, mirror(ctx, mc, rec, q.name, tr.Server, t)
}

// mirror replays a plan the way the fleet runs it, on an in-process engine
// holding the same encrypted table split into the same identifier ranges:
// one partial plan per range, encoded for the wire, run concurrently,
// each partial encoded and decoded as a result frame, then merged.
func mirror(ctx context.Context, mc *engine.Cluster, rec *recorder, name string, pl *engine.Plan, t *queryTrace) error {
	root := rec.begin(-1, "mirror "+name)
	defer rec.end(root)
	subs := pl.Table.SplitRanges(daemons)
	plans := make([]*engine.Plan, len(subs))
	for k, sub := range subs {
		tx := *pl
		tx.Table, tx.Partial = sub, true
		scope := engine.IDRange{Lo: 1, Hi: 0}
		if sub.NumRows() > 0 {
			scope = engine.IDRange{Lo: sub.Parts[0].StartID, Hi: sub.EndID()}
		}
		tx.Range = &scope
		plans[k] = &tx

		wx := tx
		wx.Table = nil
		req := &wire.PlanRequest{TableRef: fmt.Sprintf("%s#r%d", pl.Table.Name, k), Plan: &wx}
		if pl.Join != nil {
			join := *pl.Join
			join.Right = nil
			wx.Join = &join
			req.JoinRef = pl.Join.Right.Name + "#all"
		}
		var err error
		t.planEnc += rec.timed(root, "wire.EncodePlan", func() { _, err = wire.EncodePlan(req, wire.Version) })
		if err != nil {
			return err
		}
	}

	partials := make([]*engine.Result, len(plans))
	errs := make([]error, len(plans))
	ids := make([]int, len(plans))
	var wg sync.WaitGroup
	for k := range plans {
		ids[k] = rec.begin(root, "engine.Cluster.Run")
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			partials[k], errs[k] = mc.Run(ctx, plans[k])
			rec.end(ids[k])
		}(k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	rec.mu.Lock()
	first, last := rec.spans[ids[0]].Start, rec.spans[ids[0]].End
	for _, id := range ids {
		first, last = min(first, rec.spans[id].Start), max(last, rec.spans[id].End)
	}
	rec.mu.Unlock()
	t.engine = last - first

	codec := ""
	if pl.Codec != nil {
		codec = pl.Codec.Name()
	}
	for k, p := range partials {
		var frame []byte
		var err error
		t.resEnc += rec.timed(root, "wire.EncodeResult", func() { frame, err = wire.EncodeResult(codec, p, nil, wire.Version) })
		if err != nil {
			return err
		}
		// Count bytes on a copy without the metrics block: it carries
		// measured durations, whose varint widths vary from run to run.
		bare := *p
		bare.Metrics = engine.Metrics{}
		counted, err := wire.EncodeResult(codec, &bare, nil, wire.Version)
		if err != nil {
			return err
		}
		t.resultBytes += uint64(len(counted))
		t.resDec += rec.timed(root, "wire.DecodeResult", func() { _, partials[k], _, err = wire.DecodeResult(frame, wire.Version) })
		if err != nil {
			return err
		}
	}
	var merged *engine.Result
	var err error
	mp := *pl
	t.merge = rec.timed(root, "engine.MergeResults", func() { merged, err = engine.MergeResults(&mp, partials) })
	if err != nil {
		return err
	}
	t.groups = uint64(len(merged.Groups) + len(merged.Scan))
	return nil
}

// writePath measures the write-path layers on the workload's own writes.
type writePath struct {
	encryptNs, encryptRows  int64
	appendBytes, appendRows int64
	fleetWrites             []float64 // ms per fleet write call
	durableAppends          []time.Duration
	durableRows             int64
	durableBytes, segments  int64
}

// probeDurable appends batches[1:] to a scratch FsyncBatch store holding
// batches[0], timing durable.Store.Append and measuring what it writes.
func (w *writePath) probeDurable(rec *recorder, dir string, batches []*store.Table) error {
	st, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncBatch})
	if err != nil {
		return err
	}
	defer st.Close()
	const ref = "probe"
	if err := st.Register(ref, batches[0]); err != nil {
		return err
	}
	bytes0, segs0, err := dirUsage(dir)
	if err != nil {
		return err
	}
	for _, b := range batches[1:] {
		var err error
		d := rec.timed(-1, "durable.Store.Append", func() { err = st.Append(ref, b) })
		if err != nil {
			return err
		}
		w.durableAppends = append(w.durableAppends, d)
		w.durableRows += int64(b.NumRows())
	}
	if err := st.Sync(); err != nil {
		return err
	}
	bytes1, segs1, err := dirUsage(dir)
	if err != nil {
		return err
	}
	w.durableBytes, w.segments = bytes1-bytes0, segs1-segs0
	return nil
}

// dirUsage sums the sizes of the files under dir and counts segment files.
func dirUsage(dir string) (bytes, segments int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		bytes += info.Size()
		if strings.HasSuffix(d.Name(), ".seg") {
			segments++
		}
		return nil
	})
	return bytes, segments, err
}

func (w *writePath) encodeAppend(ref string, batches []*store.Table) error {
	for _, b := range batches {
		frame, err := wire.EncodeAppend(ref, b)
		if err != nil {
			return err
		}
		w.appendBytes += int64(len(frame))
		w.appendRows += int64(b.NumRows())
	}
	return nil
}

// measureUploadWrites measures the write path of a workload without appends
// on its upload: client.Encrypt of every table, and the fact table's
// encrypted rows cut into append-sized batches for wire and durable.
func measureUploadWrites(e *env, ds *dataset, rec *recorder, tb *timedBackend, dir string, w *writePath) error {
	var fact *store.Table
	for _, t := range ds.tables {
		plan, err := e.proxy.Plan(t.name)
		if err != nil {
			return err
		}
		var enc *store.Table
		d := rec.timed(-1, "client.Encrypt", func() {
			enc, err = client.Encrypt(plan, e.proxy.Ring(), t.data, translate.Seabed, 4*tb.Workers())
		})
		if err != nil {
			return err
		}
		w.encryptNs += d.Nanoseconds()
		w.encryptRows += int64(t.data.NumRows())
		if t.name == ds.fact {
			fact = enc
		}
	}
	n := int(fact.NumRows()+appendBatchRows-1) / appendBatchRows
	batches := fact.SplitRanges(n)
	batches = batches[:min(len(batches), appendPool)]
	if err := w.encodeAppend(ds.fact, batches[1:]); err != nil {
		return err
	}
	return w.probeDurable(rec, dir, batches)
}

// tracedAppends appends the pool of ingest batches through the proxy, each
// under an "append" span whose fleet.AppendTable child the wrapper records,
// and measures the same batches' client, wire and durable layers beside it.
func tracedAppends(ctx context.Context, e *env, ds *dataset, rec *recorder, dir string, w *writePath) error {
	plan, err := e.proxy.Plan(ds.fact)
	if err != nil {
		return err
	}
	var encs []*store.Table
	for i, b := range ds.batches {
		cur, err := e.proxy.Table(ds.fact, translate.Seabed)
		if err != nil {
			return err
		}
		var enc *store.Table
		d := rec.timed(-1, "client.EncryptFrom", func() {
			enc, err = client.EncryptFrom(plan, e.proxy.Ring(), b, translate.Seabed, 1, cur.EndID()+1)
		})
		if err != nil {
			return err
		}
		w.encryptNs += d.Nanoseconds()
		w.encryptRows += int64(b.NumRows())
		encs = append(encs, enc)

		root := rec.begin(-1, "append")
		err = e.proxy.Append(withParent(ctx, root), ds.fact, b, translate.Seabed)
		rec.end(root)
		if err != nil {
			return fmt.Errorf("append batch %d: %w", i, err)
		}
		ds.reader.want[""] += ds.batchSum[i]
	}
	if err := w.encodeAppend(ds.fact, encs[1:]); err != nil {
		return err
	}
	return w.probeDurable(rec, dir, encs)
}
