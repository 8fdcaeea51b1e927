package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"seabed/internal/ashe"
	"seabed/internal/engine"
	"seabed/internal/ope"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// Kernels measures raw map-stage throughput of the vectorized batch
// executor against the retained row-at-a-time reference evaluator, per
// query shape. Unlike the paper-figure experiments these rows report real
// wall-clock rows/sec of this machine's scan loop — the §4.5 premise is
// that ASHE makes the scan loop, not the crypto, the bottleneck, so the
// scan loop's own speed is a first-class artifact of the reproduction.
func Kernels(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	rows := 1 << 21
	if cfg.Quick {
		rows = 1 << 18
	}
	fmt.Fprintf(w, "Executor kernel throughput, %d rows, %d partitions (vectorized vs reference, wall clock)\n",
		rows, engine.DefaultWorkers)

	key := ashe.MustNewKey([]byte("bench-key-16byte"))
	opeKey := ope.MustNewKey([]byte("bench-ope-key-16"))
	// v has 100 distinct values; rows sharing a value share its OPE
	// ciphertext, so the column costs one slice header per row and the
	// key's 64 AES calls run per value, not per row.
	var opeVals [100][]byte
	for v := range opeVals {
		opeVals[v] = opeKey.Encrypt(uint64(v))
	}
	vals := make([]uint64, rows)
	dims := make([]uint64, rows)
	wide := make([]uint64, rows)
	body := make([]uint64, rows)
	opeCol := make([][]byte, rows)
	for i := 0; i < rows; i++ {
		vals[i] = uint64(i % 100)
		dims[i] = uint64(i % 1024)
		// Distinct sparse keys: every row its own group, far outside the
		// dense direct-index span, so grouping runs the hashed/radix path.
		wide[i] = uint64(i)*0x9e3779b1 + 11
		body[i] = key.EncryptBody(vals[i], uint64(i)+1)
		opeCol[i] = opeVals[i%100]
	}
	tbl, err := store.Build("kern", []store.Column{
		{Name: "v", Kind: store.U64, U64: vals},
		{Name: "d", Kind: store.U64, U64: dims},
		{Name: "u", Kind: store.U64, U64: wide},
		{Name: "v_ashe", Kind: store.U64, U64: body},
		{Name: "v_ope", Kind: store.Bytes, Bytes: opeCol},
	}, engine.DefaultWorkers)
	if err != nil {
		return err
	}

	cluster := engine.NewCluster(engine.Config{Workers: engine.DefaultWorkers, Seed: uint64(cfg.Seed)})
	shapes := []struct {
		name string
		plan func() *engine.Plan
	}{
		{"filter+sum (u64)", func() *engine.Plan {
			return &engine.Plan{Table: tbl,
				Filters: []engine.Filter{{Kind: engine.FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 50}},
				Aggs:    []engine.Agg{{Kind: engine.AggPlainSum, Col: "v"}}}
		}},
		{"ashe sum", func() *engine.Plan {
			return &engine.Plan{Table: tbl,
				Aggs: []engine.Agg{{Kind: engine.AggAsheSum, Col: "v_ashe"}}}
		}},
		{"ope filter + ashe sum", func() *engine.Plan {
			return &engine.Plan{Table: tbl,
				Filters: []engine.Filter{{Kind: engine.FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpLt, Bytes: opeVals[30]}},
				Aggs:    []engine.Agg{{Kind: engine.AggAsheSum, Col: "v_ashe"}}}
		}},
		{"group-by (1024 u64 keys)", func() *engine.Plan {
			return &engine.Plan{Table: tbl, GroupBy: &engine.GroupBy{Col: "d"},
				Aggs: []engine.Agg{{Kind: engine.AggPlainSum, Col: "v"}}}
		}},
		{"group-by (wide u64 keys)", func() *engine.Plan {
			return &engine.Plan{Table: tbl, GroupBy: &engine.GroupBy{Col: "u"},
				Aggs: []engine.Agg{{Kind: engine.AggPlainSum, Col: "v"}}}
		}},
	}

	// One discarded warmup run plus a trial floor: at these row counts a
	// single Run finishes in milliseconds, so cold caches and goroutine
	// spin-up would otherwise swamp the kernel difference being measured.
	trials := max(cfg.Trials, 3)
	measure := func(run func(context.Context, *engine.Plan) (*engine.Result, error), pl *engine.Plan) (time.Duration, error) {
		if _, err := run(context.Background(), pl); err != nil {
			return 0, err
		}
		var ds []time.Duration
		for t := 0; t < trials; t++ {
			start := time.Now()
			if _, err := run(context.Background(), pl); err != nil {
				return 0, err
			}
			ds = append(ds, time.Since(start))
		}
		return median(ds), nil
	}

	for _, s := range shapes {
		vec, err := measure(cluster.Run, s.plan())
		if err != nil {
			return err
		}
		ref, err := measure(cluster.RunReference, s.plan())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-26s vectorized=%8.1f Mrows/s  reference=%8.1f Mrows/s  speedup=%.2fx\n",
			s.name, mrowsPerSec(rows, vec), mrowsPerSec(rows, ref), float64(ref)/float64(vec))
	}

	// Mid-map streaming: a plain projected scan delivered through RunStream.
	// The headline number is first-chunk latency — how long the caller waits
	// before any rows arrive — against the full run, which pays for every
	// partition plus the gather.
	scanPlan := &engine.Plan{Table: tbl,
		Filters: []engine.Filter{{Kind: engine.FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 50}},
		Project: []string{"v", "d"}}
	var first, total time.Duration
	for t := 0; t < trials+1; t++ { // first iteration is the warmup
		start := time.Now()
		res, err := cluster.RunStream(context.Background(), scanPlan,
			func([]engine.ScanRow) error { return nil })
		if err != nil {
			return err
		}
		d := time.Since(start)
		if t == 0 || res.Metrics.FirstChunk < first {
			first, total = res.Metrics.FirstChunk, d
		}
	}
	fmt.Fprintf(w, "  %-26s first-chunk=%v  full-run=%v  (%.1f%% of run)\n",
		"streamed scan", first.Round(time.Microsecond), total.Round(time.Microsecond),
		100*float64(first)/float64(total))
	return nil
}

func mrowsPerSec(rows int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(rows) / d.Seconds() / 1e6
}
