package engine

import (
	"context"
	"testing"

	"seabed/internal/idlist"
	"seabed/internal/sqlparse"
)

// TestMapTaskIDListsRoundTrip pins the invariant that lets map tasks hand
// the reducer their raw ASHE identifier lists instead of decoding the
// encoded bytes: for every list a map task builds, under both executors
// and every codec a plan can select, Decode(Encode(ids)) is Equal to ids.
func TestMapTaskIDListsRoundTrip(t *testing.T) {
	const rows, parts = 20000, 7
	tbl, right, _ := diffFixture(t, rows, parts)
	plans := map[string]*Plan{
		"sum": {Table: tbl,
			Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}},
		"det-filter": {Table: tbl,
			Filters: []Filter{{Kind: FilterDetEq, Col: "d_det", Bytes: detKey.EncryptU64(3)}},
			Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}},
		"random-filter": {Table: tbl,
			Filters: []Filter{{Kind: FilterRandom, Prob: 0.37, Seed: 1234}},
			Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}},
		"ope-filter": {Table: tbl,
			Filters: []Filter{{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpLt, Bytes: opeKey.Encrypt(30)}},
			Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}},
		"group-by-det": {Table: tbl, GroupBy: &GroupBy{Col: "d_det"},
			Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}},
		"group-by-bounded-inflated": {Table: tbl, GroupBy: &GroupBy{Col: "d", KeyBound: 7, Inflate: 4},
			Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}},
		"group-by-wide": {Table: tbl, GroupBy: &GroupBy{Col: "w"},
			Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}},
		"group-by-median": {Table: tbl, GroupBy: &GroupBy{Col: "s"},
			Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggPlainMedian, Col: "v"}}},
		"join": {Table: tbl,
			Join: &Join{Right: right, LeftCol: "d_det", RightCol: "rdim_det", RightCols: []string{"rank"}},
			Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggPlainSum, Col: "rank"}}},
		"idrange": {Table: tbl, Range: &IDRange{Lo: 500, Hi: 2750},
			Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}},
	}
	c := NewCluster(Config{Workers: 4, Seed: 11})
	ctx := context.Background()
	for name, pl := range plans {
		for _, codec := range idlist.AllCodecs() {
			runners := map[string]func() (mapRunner, error){
				"batch":     func() (mapRunner, error) { return c.compiled(pl, codec) },
				"reference": func() (mapRunner, error) { return pl.compileReference(codec) },
			}
			for exec, compile := range runners {
				runner, err := compile()
				if err != nil {
					t.Fatalf("%s/%s: compile: %v", name, exec, err)
				}
				lists := 0
				for _, part := range tbl.Parts {
					res, err := runner.runMapTask(ctx, c, part)
					if err != nil {
						t.Fatalf("%s/%s: map task: %v", name, exec, err)
					}
					check := func(p *partial) {
						for i := range p.aggs {
							st := &p.aggs[i]
							if st.kind != AggAsheSum || st.ids.Empty() {
								continue
							}
							lists++
							enc, err := codec.Encode(st.ids)
							if err != nil {
								t.Fatalf("%s/%s/%s: encode: %v", name, exec, codec.Name(), err)
							}
							dec, err := codec.Decode(enc)
							if err != nil {
								t.Fatalf("%s/%s/%s: decode: %v", name, exec, codec.Name(), err)
							}
							if !dec.Equal(st.ids) {
								t.Fatalf("%s/%s/%s: round trip changed the list\n  built   %s\n  decoded %s", name, exec, codec.Name(), st.ids, dec)
							}
							if len(enc) != st.encodedLen {
								t.Fatalf("%s/%s/%s: encodedLen %d, want %d", name, exec, codec.Name(), st.encodedLen, len(enc))
							}
						}
					}
					if res.single != nil {
						check(res.single)
					}
					for _, kps := range res.groups {
						for _, kp := range kps {
							check(kp.p)
						}
					}
				}
				if lists == 0 {
					t.Fatalf("%s/%s: no identifier lists built", name, exec)
				}
			}
		}
	}
}
