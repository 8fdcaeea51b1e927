package engine

import (
	"context"
	"testing"

	"seabed/internal/idlist"
	"seabed/internal/ope"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// This file pins the vectorized executor's allocation behavior and measures
// kernel throughput against the retained reference evaluator. The
// BenchmarkKernel* benchmarks are the acceptance gauge for the
// vectorization work: run
//
//	go test -bench BenchmarkKernel -benchmem ./internal/engine
//
// and compare rows/s between each kernel and its *Reference twin (the
// pre-vectorization row-at-a-time loop). CI smokes them with -benchtime=1x.

// kernelFixture builds a plaintext table: v = i%100, d = i%7, a 1024-value
// dim column for dense group-by stress, and a distinct-per-row column whose
// values spread far past the grouper's dense span for hashed/radix group-by
// stress.
func kernelFixture(tb testing.TB, rows, parts int) *store.Table {
	tb.Helper()
	vals := make([]uint64, rows)
	dims := make([]uint64, rows)
	wide := make([]uint64, rows)
	uniq := make([]uint64, rows)
	for i := 0; i < rows; i++ {
		vals[i] = uint64(i % 100)
		dims[i] = uint64(i % 7)
		wide[i] = uint64(i % 1024)
		uniq[i] = uint64(i)*0x9e3779b1 + 11
	}
	tbl, err := store.Build("k", []store.Column{
		{Name: "v", Kind: store.U64, U64: vals},
		{Name: "d", Kind: store.U64, U64: dims},
		{Name: "w", Kind: store.U64, U64: wide},
		{Name: "u", Kind: store.U64, U64: uniq},
	}, parts)
	if err != nil {
		tb.Fatal(err)
	}
	return tbl
}

func filterSumPlan(tbl *store.Table) *Plan {
	return &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 50}},
		Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}},
	}
}

// resetSingle rewinds a task's single-group accumulators so execute can run
// again over the same state without reallocating.
func resetSingle(ts *taskState) {
	ts.res.single.rows = 0
	ts.res.rowsSelected = 0
	for i := range ts.res.single.aggs {
		ts.res.single.aggs[i].u64 = 0
	}
}

// TestKernelU64FilterSumAllocFree asserts the tentpole's allocation
// guarantee: once a task's state exists, the u64 filter+sum kernel path —
// selection-vector fill, predicate compaction, bulk accumulation — touches
// the heap zero times per partition pass.
func TestKernelU64FilterSumAllocFree(t *testing.T) {
	tbl := kernelFixture(t, 1<<16, 1)
	cp, err := filterSumPlan(tbl).compile(0, idlist.Default)
	if err != nil {
		t.Fatal(err)
	}
	ts := cp.newTaskState(tbl.Parts[0])
	ctx := context.Background()
	n := tbl.Parts[0].NumRows()
	if err := ts.execute(ctx, 0, n-1); err != nil { // warm up
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		resetSingle(ts)
		if err := ts.execute(ctx, 0, n-1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("u64 filter+sum kernel path allocates %.1f allocs per pass, want 0", avg)
	}
}

// TestKernelU64JoinProbeAllocFree asserts the satellite fix for hashKeyOf:
// the typed join index probes u64 keys without rendering them as strings,
// so the probe+count path is allocation-free in steady state.
func TestKernelU64JoinProbeAllocFree(t *testing.T) {
	tbl := kernelFixture(t, 1<<14, 1)
	right := kernelFixture(t, 5, 1) // d values 0..4: dims 5 and 6 drop
	pl := &Plan{
		Table: tbl,
		Join:  &Join{Right: right, LeftCol: "d", RightCol: "d", RightCols: []string{"v"}},
		Aggs:  []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}},
	}
	cp, err := pl.compile(0, idlist.Default)
	if err != nil {
		t.Fatal(err)
	}
	if cp.joinU64 == nil {
		t.Fatal("u64 join key did not compile to a typed u64 index")
	}
	ts := cp.newTaskState(tbl.Parts[0])
	ctx := context.Background()
	n := tbl.Parts[0].NumRows()
	if err := ts.execute(ctx, 0, n-1); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		resetSingle(ts)
		if err := ts.execute(ctx, 0, n-1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("u64 join probe path allocates %.1f allocs per pass, want 0", avg)
	}
}

// TestKernelU64GroupKeyAllocFree asserts the group-by fast path: u64 group
// keys never round-trip through strings, so once every group's partial
// exists, accumulating more rows allocates nothing.
func TestKernelU64GroupKeyAllocFree(t *testing.T) {
	tbl := kernelFixture(t, 1<<14, 1)
	pl := &Plan{
		Table:   tbl,
		GroupBy: &GroupBy{Col: "w"}, // 1024 distinct u64 keys
		Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}},
	}
	cp, err := pl.compile(0, idlist.Default)
	if err != nil {
		t.Fatal(err)
	}
	ts := cp.newTaskState(tbl.Parts[0])
	ctx := context.Background()
	n := tbl.Parts[0].NumRows()
	if err := ts.execute(ctx, 0, n-1); err != nil { // materializes all partials
		t.Fatal(err)
	}
	if len(ts.g.keys) != 1024 {
		t.Fatalf("u64 grouper holds %d groups, want 1024", len(ts.g.keys))
	}
	avg := testing.AllocsPerRun(10, func() {
		ts.res.rowsSelected = 0
		if err := ts.execute(ctx, 0, n-1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("u64 group-key path allocates %.1f allocs per pass in steady state, want 0", avg)
	}
}

// opeKernelFixture builds the range-filter shape of the paper's dashboard
// and ingest queries: v = i%365 (a day-of-year dimension), its OPE
// ciphertext in v_ope — one contiguous 64-byte slot per row, as a decoded
// segment lays them out — and v as the ASHE body column.
func opeKernelFixture(tb testing.TB, rows int) *store.Table {
	tb.Helper()
	const days = 365
	var cts [days][]byte
	for d := range cts {
		cts[d] = opeKey.Encrypt(uint64(d))
	}
	vals := make([]uint64, rows)
	opeCol := make([][]byte, rows)
	backing := make([]byte, rows*ope.CiphertextSize)
	for i := 0; i < rows; i++ {
		vals[i] = uint64(i % days)
		slot := backing[i*ope.CiphertextSize : (i+1)*ope.CiphertextSize : (i+1)*ope.CiphertextSize]
		copy(slot, cts[i%days])
		opeCol[i] = slot
	}
	tbl, err := store.Build("o", []store.Column{
		{Name: "v", Kind: store.U64, U64: vals},
		{Name: "v_ope", Kind: store.Bytes, Bytes: opeCol},
	}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// opeFilterPlan is WHERE v < 30 on the OPE column, summing aggs over the
// survivors.
func opeFilterPlan(tbl *store.Table, aggs ...Agg) *Plan {
	return &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpLt, Bytes: opeKey.Encrypt(30)}},
		Aggs:    aggs,
	}
}

// TestKernelOpeFilterAllocFree is the u64 guard's twin for the OPE range
// filter: the word-wide comparison kernel compacts the selection vector
// without touching the heap.
func TestKernelOpeFilterAllocFree(t *testing.T) {
	tbl := opeKernelFixture(t, 1<<14)
	cp, err := opeFilterPlan(tbl, Agg{Kind: AggPlainSum, Col: "v"}, Agg{Kind: AggCount}).compile(0, idlist.Default)
	if err != nil {
		t.Fatal(err)
	}
	ts := cp.newTaskState(tbl.Parts[0])
	ctx := context.Background()
	n := tbl.Parts[0].NumRows()
	if err := ts.execute(ctx, 0, n-1); err != nil { // warm up
		t.Fatal(err)
	}
	var want uint64
	for i := 0; i < n; i++ {
		if i%365 < 30 {
			want++
		}
	}
	if ts.res.rowsSelected != want {
		t.Fatalf("OPE filter selected %d rows, want %d", ts.res.rowsSelected, want)
	}
	avg := testing.AllocsPerRun(10, func() {
		resetSingle(ts)
		if err := ts.execute(ctx, 0, n-1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("OPE filter kernel path allocates %.1f allocs per pass, want 0", avg)
	}
}

// TestKernelOpeFilterMatchesPlaintext checks the OPE kernel's semantics
// against plaintext, not just against the reference evaluator: for every
// operator and constants below, inside and above the stored domain, the
// rows an OPE filter on v_ope selects are the rows the u64 filter on v does.
func TestKernelOpeFilterMatchesPlaintext(t *testing.T) {
	tbl := opeKernelFixture(t, 3000)
	c := NewCluster(Config{Workers: 2})
	ops := []sqlparse.CmpOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe}
	count := func(f Filter) uint64 {
		t.Helper()
		res, err := c.Run(context.Background(), &Plan{Table: tbl, Filters: []Filter{f}, Aggs: []Agg{{Kind: AggCount}}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.RowsSelected
	}
	for _, op := range ops {
		for _, k := range []uint64{0, 30, 364, 400} {
			want := count(Filter{Kind: FilterPlainCmp, Col: "v", Op: op, U64: k})
			got := count(Filter{Kind: FilterOpeCmp, Col: "v_ope", Op: op, Bytes: opeKey.Encrypt(k)})
			if got != want {
				t.Errorf("op %v, constant %d: OPE filter selected %d rows, plaintext %d", op, k, got, want)
			}
		}
	}
}

// --- benchmarks: vectorized kernels vs the pre-refactor loop ---

const benchRows = 1 << 18

func reportRows(b *testing.B, rows int) {
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkKernelFilterSumU64 measures the compiled kernel path alone — the
// zero-allocation claim in the acceptance criteria is this benchmark's
// allocs/op column.
func BenchmarkKernelFilterSumU64(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	cp, err := filterSumPlan(tbl).compile(0, idlist.Default)
	if err != nil {
		b.Fatal(err)
	}
	ts := cp.newTaskState(tbl.Parts[0])
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetSingle(ts)
		if err := ts.execute(ctx, 0, benchRows-1); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

// BenchmarkKernelFilterSumU64MapTask is the same plan through the full
// vectorized map task (bind, execute, encode, shuffle accounting) — the
// production per-partition cost.
func BenchmarkKernelFilterSumU64MapTask(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	cp, err := filterSumPlan(tbl).compile(0, idlist.Default)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

// BenchmarkKernelFilterSumU64Reference is the pre-refactor row-at-a-time
// loop on the identical plan and partition.
func BenchmarkKernelFilterSumU64Reference(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	rp, err := filterSumPlan(tbl).compileReference(idlist.Default)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

// ashePlan sums a u64 column as ASHE ciphertext bodies (the paper's core
// aggregate): body adds plus identifier-list growth. With no filter the
// executor takes the dense path, growing the id-list by whole ranges.
func ashePlan(tbl *store.Table) *Plan {
	return &Plan{Table: tbl, Aggs: []Agg{{Kind: AggAsheSum, Col: "v"}}}
}

func BenchmarkKernelAsheSum(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	cp, err := ashePlan(tbl).compile(0, idlist.Default)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

func BenchmarkKernelAsheSumReference(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	rp, err := ashePlan(tbl).compileReference(idlist.Default)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

func groupByPlan(tbl *store.Table) *Plan {
	return &Plan{
		Table:   tbl,
		GroupBy: &GroupBy{Col: "w"},
		Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}},
	}
}

func BenchmarkKernelGroupByU64(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	cp, err := groupByPlan(tbl).compile(0, idlist.Default)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

func BenchmarkKernelGroupByU64Reference(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	rp, err := groupByPlan(tbl).compileReference(idlist.Default)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

// wideGroupByPlan groups on the distinct-per-row column: every key misses
// the dense span, so the grouper's open-addressed table — radix-ordered once
// it outgrows radixMinTable — carries the whole load.
func wideGroupByPlan(tbl *store.Table) *Plan {
	return &Plan{
		Table:   tbl,
		GroupBy: &GroupBy{Col: "u"},
		Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}},
	}
}

func BenchmarkKernelGroupByU64Wide(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	cp, err := wideGroupByPlan(tbl).compile(0, idlist.Default)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

func BenchmarkKernelGroupByU64WideReference(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	rp, err := wideGroupByPlan(tbl).compileReference(idlist.Default)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

func joinPlan(tbl, right *store.Table) *Plan {
	return &Plan{
		Table: tbl,
		Join:  &Join{Right: right, LeftCol: "d", RightCol: "d", RightCols: []string{"v"}},
		Aggs:  []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}},
	}
}

func BenchmarkKernelJoinProbeU64(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	right := kernelFixture(b, 5, 1)
	cp, err := joinPlan(tbl, right).compile(0, idlist.Default)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

func BenchmarkKernelJoinProbeU64Reference(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	right := kernelFixture(b, 5, 1)
	rp, err := joinPlan(tbl, right).compileReference(idlist.Default)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

// BenchmarkKernelScanProject measures the arena-backed scan projection.
func BenchmarkKernelScanProject(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	pl := &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 90}},
		Project: []string{"v", "w"},
	}
	cp, err := pl.compile(0, idlist.Default)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

func BenchmarkKernelScanProjectReference(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	pl := &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 90}},
		Project: []string{"v", "w"},
	}
	rp, err := pl.compileReference(idlist.Default)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

// BenchmarkKernelOpeFilterAsheSum is the ingest reader's shape: an OPE
// range filter (WHERE day < 30, ~8% selected) feeding an ASHE sum, through
// the full vectorized map task.
func BenchmarkKernelOpeFilterAsheSum(b *testing.B) {
	tbl := opeKernelFixture(b, benchRows)
	cp, err := opeFilterPlan(tbl, Agg{Kind: AggAsheSum, Col: "v"}).compile(0, idlist.Default)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

func BenchmarkKernelOpeFilterAsheSumReference(b *testing.B) {
	tbl := opeKernelFixture(b, benchRows)
	rp, err := opeFilterPlan(tbl, Agg{Kind: AggAsheSum, Col: "v"}).compileReference(idlist.Default)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}
