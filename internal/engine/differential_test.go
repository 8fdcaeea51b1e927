package engine

import (
	"context"
	"crypto/rand"
	"fmt"
	"reflect"
	"testing"

	"seabed/internal/paillier"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// This file differentially tests the vectorized executor (Run) against the
// retained straight-line reference evaluator (RunReference): every query
// category — filter, aggregate, group-by, join, median, scan — in each of
// the NoEnc (plaintext), Seabed (ASHE/DET/OPE), and Paillier column
// representations must produce byte-identical results and identical
// deterministic cost accounting through both executors. CI runs the package
// under -race, so the compiled plan's sharing across concurrent map tasks
// is exercised too.

// diffFixture extends the test fixture with a string dimension and a
// Paillier ciphertext column so all three encryption modes are present in
// one table.
func diffFixture(t *testing.T, rows, parts int) (*store.Table, *store.Table, *paillier.PrivateKey) {
	t.Helper()
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sk.NewMaskPool(rand.Reader, 16)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, rows)
	dims := make([]uint64, rows)
	wide := make([]uint64, rows)
	strs := make([]string, rows)
	asheCol := make([]uint64, rows)
	detCol := make([][]byte, rows)
	opeCol := make([][]byte, rows)
	pailCol := make([][]byte, rows)
	for i := 0; i < rows; i++ {
		vals[i] = uint64(i % 97)
		dims[i] = uint64(i % 7)
		// Distinct per row and spread far past the grouper's dense span, so
		// wide group-bys drive the hashed (and, once the table outgrows
		// radixMinTable, radix-partitioned) probe path.
		wide[i] = uint64(i)*0x9e3779b1 + 11
		strs[i] = fmt.Sprintf("dim-%d", i%5)
		asheCol[i] = asheKey.EncryptBody(vals[i], uint64(i)+1)
		detCol[i] = detKey.EncryptU64(dims[i])
		opeCol[i] = opeKey.Encrypt(vals[i])
		pailCol[i] = sk.Marshal(pool.EncryptU64(vals[i]))
	}
	tbl, err := store.Build("t", []store.Column{
		{Name: "v", Kind: store.U64, U64: vals},
		{Name: "d", Kind: store.U64, U64: dims},
		{Name: "w", Kind: store.U64, U64: wide},
		{Name: "s", Kind: store.Str, Str: strs},
		{Name: "v_ashe", Kind: store.U64, U64: asheCol},
		{Name: "d_det", Kind: store.Bytes, Bytes: detCol},
		{Name: "v_ope", Kind: store.Bytes, Bytes: opeCol},
		{Name: "v_pail", Kind: store.Bytes, Bytes: pailCol},
	}, parts)
	if err != nil {
		t.Fatal(err)
	}

	// Right side for broadcast joins: one row per dim value, keyed both as
	// plaintext u64 and as DET bytes, with a payload column.
	const rdims = 5 // leave dims 5 and 6 unmatched so inner-join drops occur
	rdim := make([]uint64, rdims)
	rdet := make([][]byte, rdims)
	rank := make([]uint64, rdims)
	rankOpe := make([][]byte, rdims)
	for i := 0; i < rdims; i++ {
		rdim[i] = uint64(i)
		rdet[i] = detKey.EncryptU64(uint64(i))
		rank[i] = uint64(100 + i*11)
		rankOpe[i] = opeKey.Encrypt(rank[i])
	}
	right, err := store.Build("r", []store.Column{
		{Name: "rdim", Kind: store.U64, U64: rdim},
		{Name: "rdim_det", Kind: store.Bytes, Bytes: rdet},
		{Name: "rank", Kind: store.U64, U64: rank},
		{Name: "rank_ope", Kind: store.Bytes, Bytes: rankOpe},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, right, sk
}

// assertSameResult compares everything deterministic about two results:
// groups (keys, rows, every aggregate value including encoded id-lists and
// Paillier ciphertexts), scan rows, and the non-timing metrics.
func assertSameResult(t *testing.T, name string, vec, ref *Result) {
	t.Helper()
	if !reflect.DeepEqual(vec.Groups, ref.Groups) {
		t.Errorf("%s: groups diverge\nvectorized: %+v\nreference:  %+v", name, vec.Groups, ref.Groups)
	}
	if !reflect.DeepEqual(vec.Scan, ref.Scan) {
		t.Errorf("%s: scan rows diverge (%d vs %d rows)", name, len(vec.Scan), len(ref.Scan))
	}
	type det struct {
		ShuffleBytes, ResultBytes, MapTasks, ReduceTasks int
		RowsScanned, RowsSelected                        uint64
	}
	v := det{vec.Metrics.ShuffleBytes, vec.Metrics.ResultBytes, vec.Metrics.MapTasks, vec.Metrics.ReduceTasks, vec.Metrics.RowsScanned, vec.Metrics.RowsSelected}
	r := det{ref.Metrics.ShuffleBytes, ref.Metrics.ResultBytes, ref.Metrics.MapTasks, ref.Metrics.ReduceTasks, ref.Metrics.RowsScanned, ref.Metrics.RowsSelected}
	if v != r {
		t.Errorf("%s: deterministic metrics diverge\nvectorized: %+v\nreference:  %+v", name, v, r)
	}
}

func TestDifferentialExecutors(t *testing.T) {
	// ~2857 rows per partition: every partition spans multiple 1024-row
	// batches, so batch-boundary state (selection-vector reuse, arena
	// refills, per-batch id-list AppendRange runs) is differentially
	// exercised, not just the single-batch case.
	const rows, parts = 20000, 7
	tbl, right, sk := diffFixture(t, rows, parts)
	pk := &sk.PublicKey

	cases := []struct {
		name string
		plan func() *Plan
	}{
		// --- NoEnc: plaintext filters and aggregates ---
		{"noenc/filter-agg", func() *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 40}},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount},
					{Kind: AggPlainSumSq, Col: "v"}, {Kind: AggPlainMin, Col: "v"}, {Kind: AggPlainMax, Col: "v"}}}
		}},
		{"noenc/every-op", func() *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{
					{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGe, U64: 10},
					{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpLe, U64: 90},
					{Kind: FilterPlainCmp, Col: "d", Op: sqlparse.OpNe, U64: 6},
				},
				Aggs: []Agg{{Kind: AggCount}}}
		}},
		{"noenc/str-filter", func() *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterStrCmp, Col: "s", Op: sqlparse.OpGt, Str: "dim-1"}},
				Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}}}
		}},
		{"noenc/random-filter", func() *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterRandom, Prob: 0.37, Seed: 1234}},
				Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}}}
		}},
		{"noenc/group-by-u64", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d"},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}, {Kind: AggPlainMax, Col: "v"}}}
		}},
		{"noenc/group-by-str", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "s"},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}}}
		}},
		{"noenc/group-by-inflated", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d", Inflate: 4},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}}}
		}},
		// Bounded key domains: KeyBound sizes the dense flat-array path
		// exactly (7), undershoots so keys 3..6 must fall back to the hashed
		// path (3), and composes with inflation.
		{"noenc/group-by-bounded", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d", KeyBound: 7},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}, {Kind: AggPlainMin, Col: "v"}}}
		}},
		{"noenc/group-by-bound-undershoot", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d", KeyBound: 3},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}, {Kind: AggPlainMax, Col: "v"}}}
		}},
		{"noenc/group-by-bounded-inflated", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d", KeyBound: 7, Inflate: 4},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}}}
		}},
		// Wide keys (every row distinct, values far past the dense span):
		// the hashed probe path, with lane accumulators, generic per-slot
		// partials (median is not lane-eligible), and inflation suffixes.
		{"noenc/group-by-wide", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "w"},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}, {Kind: AggPlainMin, Col: "v"}}}
		}},
		{"noenc/group-by-wide-median", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "w"},
				Aggs: []Agg{{Kind: AggPlainMedian, Col: "v"}, {Kind: AggCount}}}
		}},
		{"noenc/group-by-wide-inflated", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "w", Inflate: 2},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}}}
		}},
		{"noenc/median", func() *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterPlainCmp, Col: "d", Op: sqlparse.OpEq, U64: 3}},
				Aggs:    []Agg{{Kind: AggPlainMedian, Col: "v"}}}
		}},
		{"noenc/median-partial", func() *Plan {
			return &Plan{Table: tbl, Partial: true,
				Aggs: []Agg{{Kind: AggPlainMedian, Col: "v"}}}
		}},
		{"noenc/scan", func() *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 88}},
				Project: []string{"v", "s", "d"}}
		}},
		{"noenc/join", func() *Plan {
			return &Plan{Table: tbl,
				Join: &Join{Right: right, LeftCol: "d", RightCol: "rdim", RightCols: []string{"rank"}},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggPlainSum, Col: "rank"}, {Kind: AggCount}}}
		}},
		{"noenc/join-right-filter", func() *Plan {
			return &Plan{Table: tbl,
				Join:    &Join{Right: right, LeftCol: "d", RightCol: "rdim", RightCols: []string{"rank"}},
				Filters: []Filter{{Kind: FilterPlainCmp, Col: "rank", Op: sqlparse.OpGt, U64: 110}},
				Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}}}
		}},
		{"noenc/join-groupby-scan-project-right", func() *Plan {
			return &Plan{Table: tbl,
				Join:    &Join{Right: right, LeftCol: "d", RightCol: "rdim", RightCols: []string{"rank"}},
				Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 90}},
				Project: []string{"v", "rank"}}
		}},

		// --- Seabed: ASHE sums, DET/OPE filters, OPE extremes and medians ---
		{"seabed/det-filter-ashe-sum", func() *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterDetEq, Col: "d_det", Bytes: detKey.EncryptU64(3)}},
				Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
		}},
		{"seabed/det-negate", func() *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterDetEq, Col: "d_det", Bytes: detKey.EncryptU64(3), Negate: true}},
				Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}}
		}},
		{"seabed/ope-filter", func() *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpLt, Bytes: opeKey.Encrypt(30)}},
				Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
		}},
		// OPE range filters under every operator: the operator-specialized
		// word-wide kernel on the join-free path. 41 is a stored value, so
		// Eq/Ne/Le/Ge each hit their boundary rows.
		{"seabed/ope-filter-eq", opeFilterCase(tbl, sqlparse.OpEq, opeKey.Encrypt(41))},
		{"seabed/ope-filter-ne", opeFilterCase(tbl, sqlparse.OpNe, opeKey.Encrypt(41))},
		{"seabed/ope-filter-lt", opeFilterCase(tbl, sqlparse.OpLt, opeKey.Encrypt(41))},
		{"seabed/ope-filter-le", opeFilterCase(tbl, sqlparse.OpLe, opeKey.Encrypt(41))},
		{"seabed/ope-filter-gt", opeFilterCase(tbl, sqlparse.OpGt, opeKey.Encrypt(41))},
		{"seabed/ope-filter-ge", opeFilterCase(tbl, sqlparse.OpGe, opeKey.Encrypt(41))},
		{"seabed/ope-filter-unknown-op", opeFilterCase(tbl, sqlparse.CmpOp(99), opeKey.Encrypt(41))},
		// Constants that are not CiphertextSize bytes long, as a hostile
		// plan frame can carry: the compile-time length check routes them
		// to rowPred, and the byte-at-a-time comparison treats the common
		// prefix as the whole order.
		{"seabed/ope-filter-const-63", opeFilterCase(tbl, sqlparse.OpLe, opeKey.Encrypt(41)[:63])},
		{"seabed/ope-filter-const-65", opeFilterCase(tbl, sqlparse.OpLt, append(opeKey.Encrypt(41), 2))},
		{"seabed/ope-filter-const-empty", opeFilterCase(tbl, sqlparse.OpEq, []byte{})},
		// OPE filters in join plans keep rowPred: on a left-side column and
		// on a column the broadcast join contributed.
		{"seabed/join-ope-filter-left", func() *Plan {
			return &Plan{Table: tbl,
				Join:    &Join{Right: right, LeftCol: "d_det", RightCol: "rdim_det", RightCols: []string{"rank"}},
				Filters: []Filter{{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpGe, Bytes: opeKey.Encrypt(60)}},
				Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggPlainSum, Col: "rank"}, {Kind: AggCount}}}
		}},
		{"seabed/join-ope-filter-right", func() *Plan {
			return &Plan{Table: tbl,
				Join:    &Join{Right: right, LeftCol: "d_det", RightCol: "rdim_det", RightCols: []string{"rank", "rank_ope"}},
				Filters: []Filter{{Kind: FilterOpeCmp, Col: "rank_ope", Op: sqlparse.OpLt, Bytes: opeKey.Encrypt(122)}},
				Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggPlainSum, Col: "rank"}, {Kind: AggCount}}}
		}},
		{"seabed/group-by-det", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d_det"},
				Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
		}},
		{"seabed/group-by-det-inflated", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d_det", Inflate: 3},
				Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}}
		}},
		{"seabed/group-by-wide-ashe", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "w"},
				Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
		}},
		{"seabed/ope-minmax-companion", func() *Plan {
			return &Plan{Table: tbl,
				Aggs: []Agg{
					{Kind: AggOpeMin, Col: "v_ope", Companion: "v_ashe"},
					{Kind: AggOpeMax, Col: "v_ope", Companion: "d_det"}}}
		}},
		{"seabed/ope-median", func() *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterDetEq, Col: "d_det", Bytes: detKey.EncryptU64(1)}},
				Aggs:    []Agg{{Kind: AggOpeMedian, Col: "v_ope", Companion: "v_ashe"}}}
		}},
		{"seabed/ope-median-partial", func() *Plan {
			return &Plan{Table: tbl, Partial: true,
				Aggs: []Agg{{Kind: AggOpeMedian, Col: "v_ope", Companion: "v_ashe"}}}
		}},
		{"seabed/scan-encrypted", func() *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpGt, Bytes: opeKey.Encrypt(92)}},
				Project: []string{"v_ashe", "d_det", "v_ope"}}
		}},
		{"seabed/join-det-keys", func() *Plan {
			return &Plan{Table: tbl,
				Join: &Join{Right: right, LeftCol: "d_det", RightCol: "rdim_det", RightCols: []string{"rank"}},
				Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggPlainSum, Col: "rank"}}}
		}},
		{"seabed/idrange", func() *Plan {
			return &Plan{Table: tbl, Range: &IDRange{Lo: 500, Hi: 2750},
				Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
		}},
		{"seabed/idrange-partial-groupby", func() *Plan {
			return &Plan{Table: tbl, Range: &IDRange{Lo: 1000, Hi: 3000}, Partial: true,
				GroupBy: &GroupBy{Col: "d_det"},
				Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggPlainMedian, Col: "v"}}}
		}},
		{"seabed/compress-at-driver", func() *Plan {
			return &Plan{Table: tbl, CompressAtDriver: true,
				Filters: []Filter{{Kind: FilterRandom, Prob: 0.5, Seed: 7}},
				Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}}
		}},

		// --- Paillier ---
		{"paillier/sum", func() *Plan {
			return &Plan{Table: tbl, Aggs: []Agg{{Kind: AggPaillierSum, Col: "v_pail", PK: pk}}}
		}},
		{"paillier/filtered-sum", func() *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterDetEq, Col: "d_det", Bytes: detKey.EncryptU64(2)}},
				Aggs:    []Agg{{Kind: AggPaillierSum, Col: "v_pail", PK: pk}, {Kind: AggCount}}}
		}},
		{"paillier/group-by", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d"},
				Aggs: []Agg{{Kind: AggPaillierSum, Col: "v_pail", PK: pk}}}
		}},
		{"paillier/group-by-bounded", func() *Plan {
			// Paillier is not lane-eligible: the dense index resolves slots
			// but accumulation runs the generic per-slot kernels.
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d", KeyBound: 7},
				Aggs: []Agg{{Kind: AggPaillierSum, Col: "v_pail", PK: pk}, {Kind: AggCount}}}
		}},
	}

	c := NewCluster(Config{Workers: 4, Seed: 11})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vec, err := c.Run(context.Background(), tc.plan())
			if err != nil {
				t.Fatalf("vectorized: %v", err)
			}
			ref, err := c.RunReference(context.Background(), tc.plan())
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			assertSameResult(t, tc.name, vec, ref)
		})
	}
}

// opeFilterCase is an OPE range filter on v_ope feeding an ASHE sum and a
// count, grouped by the DET dimension so the survivors also scatter across
// groups.
func opeFilterCase(tbl *store.Table, op sqlparse.CmpOp, c []byte) func() *Plan {
	return func() *Plan {
		return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d_det"},
			Filters: []Filter{{Kind: FilterOpeCmp, Col: "v_ope", Op: op, Bytes: c}},
			Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
	}
}

// TestDifferentialRadixGroupBy drives the radix-partitioned probe path,
// which needs enough distinct keys inside one map task for the
// open-addressed table to outgrow radixMinTable: 2 partitions × 18000
// distinct keys per task. Both lane (sum/count/ASHE) and generic (median)
// accumulation run through the radix-ordered probes, and the results must
// match the row-at-a-time reference exactly — including ASHE id-list
// contents, which pin the selection-order (not probe-order) accumulation
// guarantee.
func TestDifferentialRadixGroupBy(t *testing.T) {
	const rows, parts = 36000, 2
	vals := make([]uint64, rows)
	wide := make([]uint64, rows)
	asheCol := make([]uint64, rows)
	for i := 0; i < rows; i++ {
		vals[i] = uint64(i % 97)
		wide[i] = uint64(i)*0x9e3779b1 + 11
		asheCol[i] = asheKey.EncryptBody(vals[i], uint64(i)+1)
	}
	tbl, err := store.Build("radix", []store.Column{
		{Name: "v", Kind: store.U64, U64: vals},
		{Name: "w", Kind: store.U64, U64: wide},
		{Name: "v_ashe", Kind: store.U64, U64: asheCol},
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(Config{Workers: 4, Seed: 11})
	for _, tc := range []struct {
		name string
		plan func() *Plan
	}{
		{"lanes", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "w"},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}, {Kind: AggAsheSum, Col: "v_ashe"}}}
		}},
		{"generic", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "w"},
				Aggs: []Agg{{Kind: AggPlainMedian, Col: "v"}, {Kind: AggCount}}}
		}},
		{"inflated", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "w", Inflate: 2},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vec, err := c.Run(context.Background(), tc.plan())
			if err != nil {
				t.Fatalf("vectorized: %v", err)
			}
			ref, err := c.RunReference(context.Background(), tc.plan())
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if len(vec.Groups) != rows {
				t.Errorf("%d groups, want %d (every wide key distinct)", len(vec.Groups), rows)
			}
			assertSameResult(t, tc.name, vec, ref)
		})
	}
}

// TestDifferentialInflationSuffixIsolation is the regression test for suffix
// aliasing: every row carries one of two group values while inflation splays
// each into suffix sub-groups, so the dense index holds several cells per
// key and any cross-suffix aliasing (two suffixes resolving to one slot, in
// any batch) would corrupt counts. The suffix split must also agree exactly
// with the reference evaluator's per-row assignment.
func TestDifferentialInflationSuffixIsolation(t *testing.T) {
	const rows, parts, inflate = 9000, 3, 3
	vals := make([]uint64, rows)
	dims := make([]uint64, rows)
	for i := 0; i < rows; i++ {
		vals[i] = uint64(i % 13)
		dims[i] = uint64(i%2) * 5 // keys 0 and 5, both under any bound ≥ 6
	}
	tbl, err := store.Build("sfx", []store.Column{
		{Name: "v", Kind: store.U64, U64: vals},
		{Name: "d", Kind: store.U64, U64: dims},
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(Config{Workers: 4, Seed: 11})
	for _, bound := range []uint64{0, 6} { // default dense span and an exact KeyBound
		plan := func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d", Inflate: inflate, KeyBound: bound},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}}}
		}
		vec, err := c.Run(context.Background(), plan())
		if err != nil {
			t.Fatalf("bound=%d vectorized: %v", bound, err)
		}
		ref, err := c.RunReference(context.Background(), plan())
		if err != nil {
			t.Fatalf("bound=%d reference: %v", bound, err)
		}
		assertSameResult(t, fmt.Sprintf("suffix-isolation/bound=%d", bound), vec, ref)
		if len(vec.Groups) != 2*inflate {
			t.Fatalf("bound=%d: %d groups, want %d (2 keys × %d suffixes)", bound, len(vec.Groups), 2*inflate, inflate)
		}
		var rowsTotal uint64
		for _, g := range vec.Groups {
			if g.KeyU64 != 0 && g.KeyU64 != 5 {
				t.Errorf("bound=%d: unexpected group key %d", bound, g.KeyU64)
			}
			if g.Suffix < 0 || g.Suffix >= inflate {
				t.Errorf("bound=%d: suffix %d outside [0,%d)", bound, g.Suffix, inflate)
			}
			rowsTotal += g.Rows
		}
		if rowsTotal != rows {
			t.Errorf("bound=%d: suffix groups cover %d rows, want %d", bound, rowsTotal, rows)
		}
	}
}

// TestDifferentialEmptyRange pins the degenerate cases: a shard frame that
// excludes the whole table, and a predicate that selects nothing.
func TestDifferentialEmptyCases(t *testing.T) {
	tbl, _, _ := fixture(t, 300, 3)
	c := NewCluster(Config{Workers: 2})
	for _, tc := range []struct {
		name string
		plan func() *Plan
	}{
		{"out-of-range", func() *Plan {
			return &Plan{Table: tbl, Range: &IDRange{Lo: 10_000, Hi: 20_000},
				Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
		}},
		{"nothing-selected", func() *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 1 << 40}},
				Aggs:    []Agg{{Kind: AggPlainMin, Col: "v"}, {Kind: AggPlainMedian, Col: "v"}}}
		}},
		{"empty-groupby", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d"},
				Filters: []Filter{{Kind: FilterRandom, Prob: 0, Seed: 3}},
				Aggs:    []Agg{{Kind: AggCount}}}
		}},
		{"empty-scan", func() *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 1 << 40}},
				Project: []string{"v"}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vec, err := c.Run(context.Background(), tc.plan())
			if err != nil {
				t.Fatalf("vectorized: %v", err)
			}
			ref, err := c.RunReference(context.Background(), tc.plan())
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			assertSameResult(t, tc.name, vec, ref)
		})
	}
}
