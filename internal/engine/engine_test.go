package engine

import (
	"context"
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"testing"
	"time"

	"seabed/internal/ashe"
	"seabed/internal/det"
	"seabed/internal/ope"
	"seabed/internal/paillier"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

var (
	asheKey = ashe.MustNewKey([]byte("0123456789abcdef"))
	detKey  = det.MustNewKey([]byte("0123456789abcdef"))
	opeKey  = ope.MustNewKey([]byte("0123456789abcdef"))
)

// fixture builds a table with plain, ASHE, DET, and OPE views of the same
// data: value v_i = i%100, dim d_i = i%7.
func fixture(t *testing.T, rows, parts int) (*store.Table, []uint64, []uint64) {
	t.Helper()
	vals := make([]uint64, rows)
	dims := make([]uint64, rows)
	asheCol := make([]uint64, rows)
	detCol := make([][]byte, rows)
	opeCol := make([][]byte, rows)
	for i := 0; i < rows; i++ {
		vals[i] = uint64(i % 100)
		dims[i] = uint64(i % 7)
		asheCol[i] = asheKey.EncryptBody(vals[i], uint64(i)+1)
		detCol[i] = detKey.EncryptU64(dims[i])
		opeCol[i] = opeKey.Encrypt(vals[i])
	}
	tbl, err := store.Build("t", []store.Column{
		{Name: "v", Kind: store.U64, U64: vals},
		{Name: "d", Kind: store.U64, U64: dims},
		{Name: "v_ashe", Kind: store.U64, U64: asheCol},
		{Name: "d_det", Kind: store.Bytes, Bytes: detCol},
		{Name: "v_ope", Kind: store.Bytes, Bytes: opeCol},
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, vals, dims
}

func cluster() *Cluster {
	return NewCluster(Config{Workers: 4})
}

func TestPlainSum(t *testing.T) {
	tbl, vals, _ := fixture(t, 1000, 7)
	res, err := cluster().Run(context.Background(), &Plan{Table: tbl, Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}}})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, v := range vals {
		want += v
	}
	if got := res.Groups[0].Aggs[0].U64; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if res.Metrics.RowsScanned != 1000 || res.Metrics.RowsSelected != 1000 {
		t.Fatalf("metrics rows: %+v", res.Metrics)
	}
}

func TestAsheSumDecrypts(t *testing.T) {
	tbl, vals, _ := fixture(t, 1000, 7)
	res, err := cluster().Run(context.Background(), &Plan{Table: tbl, Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, v := range vals {
		want += v
	}
	ag := res.Groups[0].Aggs[0].Ashe
	got := asheKey.Decrypt(ashe.Ciphertext{Body: ag.Body, IDs: ag.IDs})
	if got != want {
		t.Fatalf("decrypted sum = %d, want %d", got, want)
	}
	// All rows selected and ids contiguous: the final list must be 1 range.
	if ag.IDs.NumRanges() != 1 {
		t.Fatalf("id ranges = %d, want 1", ag.IDs.NumRanges())
	}
	if len(ag.Encoded) == 0 {
		t.Fatal("missing encoded id list")
	}
}

func TestDetFilter(t *testing.T) {
	tbl, vals, dims := fixture(t, 1000, 7)
	target := uint64(3)
	res, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterDetEq, Col: "d_det", Bytes: detKey.EncryptU64(target)}},
		Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want, wantN uint64
	for i, v := range vals {
		if dims[i] == target {
			want += v
			wantN++
		}
	}
	ag := res.Groups[0].Aggs[0].Ashe
	if got := asheKey.Decrypt(ashe.Ciphertext{Body: ag.Body, IDs: ag.IDs}); got != want {
		t.Fatalf("filtered sum = %d, want %d", got, want)
	}
	if res.Groups[0].Aggs[1].U64 != wantN {
		t.Fatalf("count = %d, want %d", res.Groups[0].Aggs[1].U64, wantN)
	}
}

func TestDetFilterNegate(t *testing.T) {
	tbl, _, dims := fixture(t, 500, 3)
	target := uint64(2)
	res, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterDetEq, Col: "d_det", Bytes: detKey.EncryptU64(target), Negate: true}},
		Aggs:    []Agg{{Kind: AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, d := range dims {
		if d != target {
			want++
		}
	}
	if got := res.Groups[0].Aggs[0].U64; got != want {
		t.Fatalf("negated count = %d, want %d", got, want)
	}
}

func TestOpeFilter(t *testing.T) {
	tbl, vals, _ := fixture(t, 1000, 7)
	threshold := uint64(42)
	res, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpGt, Bytes: opeKey.Encrypt(threshold)}},
		Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, v := range vals {
		if v > threshold {
			want += v
		}
	}
	if got := res.Groups[0].Aggs[0].U64; got != want {
		t.Fatalf("ope-filtered sum = %d, want %d", got, want)
	}
}

func TestPlainCmpOperators(t *testing.T) {
	tbl, vals, _ := fixture(t, 300, 2)
	for _, op := range []sqlparse.CmpOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe} {
		res, err := cluster().Run(context.Background(), &Plan{
			Table:   tbl,
			Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: op, U64: 50}},
			Aggs:    []Agg{{Kind: AggCount}},
		})
		if err != nil {
			t.Fatal(err)
		}
		var want uint64
		for _, v := range vals {
			if cmpMatch(op, cmpU64(v, 50)) {
				want++
			}
		}
		if got := res.Groups[0].Aggs[0].U64; got != want {
			t.Fatalf("op %v: count = %d, want %d", op, got, want)
		}
	}
}

func TestRandomSelectivity(t *testing.T) {
	tbl, _, _ := fixture(t, 20000, 5)
	res, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterRandom, Prob: 0.5, Seed: 99}},
		Aggs:    []Agg{{Kind: AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Groups[0].Aggs[0].U64
	if got < 9500 || got > 10500 {
		t.Fatalf("sel=50%% selected %d of 20000", got)
	}
	// Determinism.
	res2, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterRandom, Prob: 0.5, Seed: 99}},
		Aggs:    []Agg{{Kind: AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Groups[0].Aggs[0].U64 != got {
		t.Fatal("random selection is not deterministic for a fixed seed")
	}
	// Prob 1 selects everything.
	res3, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterRandom, Prob: 1.0, Seed: 99}},
		Aggs:    []Agg{{Kind: AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Groups[0].Aggs[0].U64 != 20000 {
		t.Fatalf("sel=100%% selected %d of 20000", res3.Groups[0].Aggs[0].U64)
	}
}

func TestGroupByPlain(t *testing.T) {
	tbl, vals, dims := fixture(t, 1000, 7)
	res, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		GroupBy: &GroupBy{Col: "d"},
		Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 7 {
		t.Fatalf("groups = %d, want 7", len(res.Groups))
	}
	want := map[uint64]uint64{}
	for i, v := range vals {
		want[dims[i]] += v
	}
	for _, g := range res.Groups {
		if g.Aggs[0].U64 != want[g.KeyU64] {
			t.Fatalf("group %d sum = %d, want %d", g.KeyU64, g.Aggs[0].U64, want[g.KeyU64])
		}
	}
}

func TestGroupByDetKeysWithAshe(t *testing.T) {
	tbl, vals, dims := fixture(t, 1000, 7)
	res, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		GroupBy: &GroupBy{Col: "d_det"},
		Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 7 {
		t.Fatalf("groups = %d, want 7", len(res.Groups))
	}
	want := map[uint64]uint64{}
	for i, v := range vals {
		want[dims[i]] += v
	}
	for _, g := range res.Groups {
		dim, err := detKey.DecryptU64(g.KeyBytes)
		if err != nil {
			t.Fatalf("decrypt group key: %v", err)
		}
		ag := g.Aggs[0].Ashe
		got := asheKey.Decrypt(ashe.Ciphertext{Body: ag.Body, IDs: ag.IDs})
		if got != want[dim] {
			t.Fatalf("group %d sum = %d, want %d", dim, got, want[dim])
		}
	}
}

func TestGroupInflation(t *testing.T) {
	tbl, vals, dims := fixture(t, 1000, 7)
	res, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		GroupBy: &GroupBy{Col: "d", Inflate: 4},
		Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) <= 7 || len(res.Groups) > 28 {
		t.Fatalf("inflated groups = %d, want in (7, 28]", len(res.Groups))
	}
	// Client-side de-inflation must recover exact sums.
	want := map[uint64]uint64{}
	for i, v := range vals {
		want[dims[i]] += v
	}
	got := map[uint64]uint64{}
	for _, g := range res.Groups {
		if g.Suffix < 0 {
			t.Fatal("inflated group missing suffix")
		}
		got[g.KeyU64] += g.Aggs[0].U64
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("de-inflated group %d = %d, want %d", k, got[k], w)
		}
	}
}

func TestPaillierSum(t *testing.T) {
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sk.NewMaskPool(rand.Reader, 16)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 300
	vals := make([]uint64, rows)
	cts := make([][]byte, rows)
	var want uint64
	for i := range vals {
		vals[i] = uint64(i * 3)
		want += vals[i]
		cts[i] = sk.Marshal(pool.EncryptU64(vals[i]))
	}
	tbl, err := store.Build("p", []store.Column{{Name: "v_pail", Kind: store.Bytes, Bytes: cts}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster().Run(context.Background(), &Plan{Table: tbl, Aggs: []Agg{{Kind: AggPaillierSum, Col: "v_pail", PK: &sk.PublicKey}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := sk.DecryptU64(res.Groups[0].Aggs[0].Pail); got != want {
		t.Fatalf("paillier sum = %d, want %d", got, want)
	}
}

func TestMinMax(t *testing.T) {
	tbl, vals, _ := fixture(t, 500, 3)
	res, err := cluster().Run(context.Background(), &Plan{Table: tbl, Aggs: []Agg{
		{Kind: AggPlainMin, Col: "v"},
		{Kind: AggPlainMax, Col: "v"},
		{Kind: AggOpeMin, Col: "v_ope"},
		{Kind: AggOpeMax, Col: "v_ope"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var min, max = vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	g := res.Groups[0]
	if g.Aggs[0].U64 != min || g.Aggs[1].U64 != max {
		t.Fatalf("plain min/max = %d/%d, want %d/%d", g.Aggs[0].U64, g.Aggs[1].U64, min, max)
	}
	// OPE extremes must compare equal to the encryption of the true extremes.
	if ope.Compare(g.Aggs[2].Ope, opeKey.Encrypt(min)) != 0 {
		t.Fatal("ope min mismatch")
	}
	if ope.Compare(g.Aggs[3].Ope, opeKey.Encrypt(max)) != 0 {
		t.Fatal("ope max mismatch")
	}
}

func TestScan(t *testing.T) {
	tbl, vals, _ := fixture(t, 400, 4)
	res, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 90}},
		Project: []string{"v", "v_ashe"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, v := range vals {
		if v > 90 {
			want++
		}
	}
	if len(res.Scan) != want {
		t.Fatalf("scan rows = %d, want %d", len(res.Scan), want)
	}
	for _, row := range res.Scan {
		// Per-row ASHE decryption with the row id must match the plain value.
		if got := asheKey.DecryptBody(row.U64s[1], row.ID); got != row.U64s[0] {
			t.Fatalf("row %d: ashe %d != plain %d", row.ID, got, row.U64s[0])
		}
	}
}

func TestJoin(t *testing.T) {
	// Left: visits(url_det, rev); right: pages(url_det, rank).
	const pages, visits = 50, 600
	rng := mrand.New(mrand.NewSource(4))
	purls := make([][]byte, pages)
	ranks := make([]uint64, pages)
	for i := 0; i < pages; i++ {
		purls[i] = detKey.EncryptString(fmt.Sprintf("url%d", i))
		ranks[i] = uint64(rng.Intn(1000))
	}
	right, err := store.Build("pages", []store.Column{
		{Name: "url_det", Kind: store.Bytes, Bytes: purls},
		{Name: "rank", Kind: store.U64, U64: ranks},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	vurls := make([][]byte, visits)
	revs := make([]uint64, visits)
	urlIdx := make([]int, visits)
	for i := 0; i < visits; i++ {
		// Some visits reference unknown pages and must drop.
		idx := rng.Intn(pages + 10)
		urlIdx[i] = idx
		if idx < pages {
			vurls[i] = purls[idx]
		} else {
			vurls[i] = detKey.EncryptString(fmt.Sprintf("missing%d", idx))
		}
		revs[i] = uint64(rng.Intn(100))
	}
	left, err := store.Build("visits", []store.Column{
		{Name: "url_det", Kind: store.Bytes, Bytes: vurls},
		{Name: "rev", Kind: store.U64, U64: revs},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster().Run(context.Background(), &Plan{
		Table: left,
		Join:  &Join{Right: right, LeftCol: "url_det", RightCol: "url_det", RightCols: []string{"rank"}},
		Aggs: []Agg{
			{Kind: AggPlainSum, Col: "rev"},
			{Kind: AggPlainSum, Col: "rank"}, // right-side column
			{Kind: AggCount},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wantRev, wantRank, wantN uint64
	for i := 0; i < visits; i++ {
		if urlIdx[i] < pages {
			wantRev += revs[i]
			wantRank += ranks[urlIdx[i]]
			wantN++
		}
	}
	g := res.Groups[0]
	if g.Aggs[0].U64 != wantRev || g.Aggs[1].U64 != wantRank || g.Aggs[2].U64 != wantN {
		t.Fatalf("join aggs = %d/%d/%d, want %d/%d/%d",
			g.Aggs[0].U64, g.Aggs[1].U64, g.Aggs[2].U64, wantRev, wantRank, wantN)
	}
}

func TestSimulatedScalingImprovesWithWorkers(t *testing.T) {
	tbl, _, _ := fixture(t, 200000, 32)
	// The OPE filter keeps each map task's measured duration in the
	// milliseconds: the vectorized executor runs a bare ASHE sum over 6k
	// rows in microseconds, where goroutine-scheduling jitter would drown
	// the simulated-scaling signal. Each cluster also gets one untimed
	// warmup run so cold caches don't skew the compared measurements.
	run := func(workers int) *Result {
		plan := func() *Plan {
			return &Plan{
				Table:   tbl,
				Filters: []Filter{{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpGe, Bytes: opeKey.Encrypt(0)}},
				Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}},
			}
		}
		c := NewCluster(Config{Workers: workers})
		if _, err := c.Run(context.Background(), plan()); err != nil { // warmup
			t.Fatal(err)
		}
		res, err := c.Run(context.Background(), plan())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	t1 := run(1).Metrics.MapTime
	t8 := run(8).Metrics.MapTime
	if t8 >= t1 {
		t.Fatalf("8 workers (%v) not faster than 1 (%v)", t8, t1)
	}
	// Demand at least 2x: per-task fixed costs (and race-detector
	// instrumentation, when enabled) keep the ideal 8x out of reach.
	if float64(t1)/float64(t8) < 2 {
		t.Fatalf("speedup %.1fx too small for 8 workers over 32 tasks", float64(t1)/float64(t8))
	}
}

func TestStragglerInjection(t *testing.T) {
	tbl, _, _ := fixture(t, 50000, 16)
	// OPE filters keep per-task durations well above timer noise — the
	// vectorized executor finishes a plain sum over 3k rows in microseconds,
	// too fast to compare two separately-measured runs reliably. One
	// word-wide OPE filter costs only tens of nanoseconds a row, so the
	// plan stacks five that each keep every row (v is 0..99).
	plan := func() *Plan {
		return &Plan{
			Table: tbl,
			Filters: []Filter{
				{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpGe, Bytes: opeKey.Encrypt(0)},
				{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpLe, Bytes: opeKey.Encrypt(99)},
				{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpLt, Bytes: opeKey.Encrypt(100)},
				{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpNe, Bytes: opeKey.Encrypt(1000)},
				{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpLe, Bytes: opeKey.Encrypt(1 << 40)},
			},
			Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}},
		}
	}
	// One untimed warmup per cluster: the baseline otherwise measures cold
	// caches while the straggler run measures warm ones, which can eat the
	// injected 10x. One simulated worker makes the map stage the sum of all
	// 16 task durations rather than the slowest one, so a single task the
	// OS descheduled cannot decide the ratio; the two clusters then run
	// alternately, so load from other processes reaches both sides alike,
	// and each side keeps its fastest of ten runs.
	baseCluster := NewCluster(Config{Workers: 1, Seed: 1})
	slowCluster := NewCluster(Config{Workers: 1, Seed: 1, StragglerProb: 1, StragglerFactor: 10})
	mapTime := func(c *Cluster) time.Duration {
		res, err := c.Run(context.Background(), plan())
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.MapTime
	}
	mapTime(baseCluster)
	mapTime(slowCluster)
	base, slow := mapTime(baseCluster), mapTime(slowCluster)
	for i := 0; i < 9; i++ {
		base, slow = min(base, mapTime(baseCluster)), min(slow, mapTime(slowCluster))
	}
	if slow < base*5 {
		t.Fatalf("stragglers did not slow the stage: %v vs %v", slow, base)
	}
}

func TestCompressAtDriverAblation(t *testing.T) {
	tbl, _, _ := fixture(t, 50000, 8)
	worker, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterRandom, Prob: 0.5, Seed: 5}},
		Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	driver, err := cluster().Run(context.Background(), &Plan{
		Table:            tbl,
		Filters:          []Filter{{Kind: FilterRandom, Prob: 0.5, Seed: 5}},
		Aggs:             []Agg{{Kind: AggAsheSum, Col: "v_ashe"}},
		CompressAtDriver: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Raw ranges on the wire are bigger than compressed lists.
	if driver.Metrics.ShuffleBytes <= worker.Metrics.ShuffleBytes {
		t.Fatalf("driver-compression shuffle %d should exceed worker-compression %d",
			driver.Metrics.ShuffleBytes, worker.Metrics.ShuffleBytes)
	}
	// Both must decrypt identically.
	wa, da := worker.Groups[0].Aggs[0].Ashe, driver.Groups[0].Aggs[0].Ashe
	if asheKey.Decrypt(ashe.Ciphertext{Body: wa.Body, IDs: wa.IDs}) != asheKey.Decrypt(ashe.Ciphertext{Body: da.Body, IDs: da.IDs}) {
		t.Fatal("ablation changed the result")
	}
}

func TestPlanValidation(t *testing.T) {
	tbl, _, _ := fixture(t, 10, 1)
	cases := []*Plan{
		{},
		{Table: tbl},
		{Table: tbl, Project: []string{"v"}, Aggs: []Agg{{Kind: AggCount}}},
		{Table: tbl, Aggs: []Agg{{Kind: AggPaillierSum, Col: "v"}}},
		{Table: tbl, Aggs: []Agg{{Kind: AggPlainSum, Col: "nope"}}},
		{Table: tbl, Aggs: []Agg{{Kind: AggCount}}, GroupBy: &GroupBy{Col: "nope"}},
		{Table: tbl, Aggs: []Agg{{Kind: AggCount}}, Filters: []Filter{{Kind: FilterPlainCmp, Col: "nope"}}},
		// Join key kinds must match: the typed join index can never pair a
		// u64 left key with a bytes right key, so the plan is rejected
		// instead of silently joining nothing.
		{Table: tbl, Aggs: []Agg{{Kind: AggCount}},
			Join: &Join{Right: tbl, LeftCol: "v", RightCol: "d_det"}},
	}
	for i, p := range cases {
		if _, err := cluster().Run(context.Background(), p); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestMakespan(t *testing.T) {
	d := func(ms ...int) []time.Duration {
		out := make([]time.Duration, len(ms))
		for i, m := range ms {
			out[i] = time.Duration(m) * time.Millisecond
		}
		return out
	}
	if got := makespan(nil, 4); got != 0 {
		t.Fatalf("empty makespan = %v", got)
	}
	if got := makespan(d(10, 10, 10, 10), 4); got != 10*time.Millisecond {
		t.Fatalf("parallel makespan = %v, want 10ms", got)
	}
	if got := makespan(d(10, 10, 10, 10), 1); got != 40*time.Millisecond {
		t.Fatalf("serial makespan = %v, want 40ms", got)
	}
	if got := makespan(d(10, 10, 10), 2); got != 20*time.Millisecond {
		t.Fatalf("2-worker makespan = %v, want 20ms", got)
	}
}
