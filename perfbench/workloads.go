package main

import (
	"fmt"
	"sort"

	"seabed/internal/planner"
	"seabed/internal/schema"
	"seabed/internal/store"
	"seabed/internal/workload"
)

// Dataset sizes. The read workloads are sized so a run of a few seconds
// holds well over 100 queries (query_p90_ms needs ten samples beyond it) and
// the process stays near a gigabyte of RSS on a small machine.
const (
	adaRows      = 100_000
	bdbVisits    = 12_000
	ingestVisits = 50_000
	// appendBatchRows is the ingest writer's batch size; appendPool distinct
	// batches are pre-generated from the seed and appended in rotation.
	appendBatchRows = 4096
	appendPool      = 16
)

// benchWorkload is one benchmark input set and traffic mix.
type benchWorkload struct {
	name string
	// clients is the number of closed-loop query clients.
	clients int
	// durable mounts a durable store (FsyncBatch) under every daemon.
	durable bool
	build   func(seed int64) (*dataset, error)
}

var workloads = map[string]*benchWorkload{
	// The paper's §6.6 headline: scan-bound hour group-bys with tiny results.
	"ada-dashboard": {name: "ada-dashboard", clients: 2, build: buildAdA},
	// AmpLab BDB (§6.7): result-bound wide group-bys, the Q3 join, streamed scans.
	"bdb-wide": {name: "bdb-wide", clients: 1, build: buildBDB},
	// Writes beside reads: one appender and one reader over a durable fleet.
	"ingest-append": {name: "ingest-append", clients: 1, durable: true, build: buildIngest},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// tableSpec is one plaintext table with what the planner needs for it.
type tableSpec struct {
	name    string
	schema  *schema.Table
	samples []string
	opts    planner.Options
	data    *store.Table
}

// query is one statement of a workload's mix with its plaintext answer:
// want maps the canonical key of each expected row (see canonical) to its
// last column.
type query struct {
	name   string
	sql    string
	groups int
	stream bool
	want   map[string]int64
}

// dataset is everything a workload generates from its seed. Generation is
// not part of set-up time.
type dataset struct {
	tables []tableSpec
	mix    []*query
	// fact names the table whose encrypted rows feed the write-path layer
	// measurements of the traced run.
	fact string
	// join is the mix's join query, if any: set-up runs it once so the
	// fleet ships the join's broadcast table before timing starts.
	join *query
	// batches are the ingest writer's pre-generated append batches and
	// reader its query; batchSum[i] is batch i's contribution to reader.
	batches  []*store.Table
	reader   *query
	batchSum []int64
}

// plainBytes is a table's plaintext size: 8 bytes per integer cell plus the
// bytes of every string.
func plainBytes(t *store.Table) uint64 {
	var n uint64
	for _, p := range t.Parts {
		for _, c := range p.Cols {
			switch c.Kind {
			case store.U64:
				n += 8 * uint64(len(c.U64))
			case store.Str:
				for _, s := range c.Str {
					n += uint64(len(s))
				}
			case store.Bytes:
				for _, b := range c.Bytes {
					n += uint64(len(b))
				}
			}
		}
	}
	return n
}

func (d *dataset) plainBytes() uint64 {
	var n uint64
	for _, t := range d.tables {
		n += plainBytes(t.data)
	}
	return n
}

func u64s(t *store.Table, col string) []uint64 {
	var out []uint64
	for _, p := range t.Parts {
		out = append(out, p.Col(col).U64...)
	}
	return out
}

func strs(t *store.Table, col string) []string {
	var out []string
	for _, p := range t.Parts {
		out = append(out, p.Col(col).Str...)
	}
	return out
}

func buildAdA(seed int64) (*dataset, error) {
	ada, err := workload.GenerateAdA(workload.AdAConfig{Rows: adaRows, Seed: seed})
	if err != nil {
		return nil, err
	}
	hour := u64s(ada.Table, "hour")
	ds := &dataset{
		tables: []tableSpec{{
			name: "ada", schema: ada.Schema, samples: workload.AdASamples(),
			opts: planner.Options{MaxStorageOverhead: 10}, data: ada.Table,
		}},
		fact: "ada",
	}
	for i, pq := range workload.AdAPerfQueries() {
		m := u64s(ada.Table, fmt.Sprintf("m%d", i%5))
		want := map[string]int64{}
		for r, h := range hour {
			if h < uint64(pq.Groups) {
				want[fmt.Sprint(h)] += int64(m[r])
			}
		}
		ds.mix = append(ds.mix, &query{name: pq.Name, sql: pq.SQL, groups: pq.Groups, want: want})
	}
	// The two SPLASHE equality sums of the planner's sample set.
	for i, dim := range []struct {
		col, measure string
		val          uint64
	}{{"sdim0", "m0", 1}, {"sdim1", "m1", 2}} {
		d, m := u64s(ada.Table, dim.col), u64s(ada.Table, dim.measure)
		var sum int64
		for r := range d {
			if d[r] == dim.val {
				sum += int64(m[r])
			}
		}
		ds.mix = append(ds.mix, &query{
			name: fmt.Sprintf("splashe-%d", i),
			sql:  fmt.Sprintf("SELECT SUM(%s) FROM ada WHERE %s = %d", dim.measure, dim.col, dim.val),
			want: map[string]int64{"": sum},
		})
	}
	return ds, nil
}

func bdbTables(b *workload.BDB) []tableSpec {
	samples := workload.BDBSamples()
	return []tableSpec{
		{name: "rankings", schema: b.RankingsSchema, samples: samples["rankings"], data: b.Rankings},
		{name: "uservisits", schema: b.UserVisitsSchema, samples: samples["uservisits"], data: b.UserVisits},
		{name: "q4phase2", schema: b.Q4Phase2Schema, samples: samples["q4phase2"], data: b.Q4Phase2},
	}
}

func buildBDB(seed int64) (*dataset, error) {
	b, err := workload.GenerateBDB(workload.BDBConfig{
		Pages: bdbVisits / 8, Visits: bdbVisits, Q4Rows: bdbVisits / 4, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	urls, ranks := strs(b.Rankings, "pageURL"), u64s(b.Rankings, "pageRank")
	pageSet := make(map[string]bool, len(urls))
	for _, u := range urls {
		pageSet[u] = true
	}
	uv := b.UserVisits
	src, dest := strs(uv, "sourceIP"), strs(uv, "destURL")
	date, rev := u64s(uv, "visitDate"), u64s(uv, "adRevenue")
	keys := strs(b.Q4Phase2, "dstKey")

	answer := func(q workload.BDBQuery) (map[string]int64, error) {
		want := map[string]int64{}
		switch q.Name {
		case "Q1A", "Q1B", "Q1C":
			min := map[string]uint64{"Q1A": 1000, "Q1B": 100, "Q1C": 10}[q.Name]
			for i, u := range urls {
				if ranks[i] > min {
					want[u] = int64(ranks[i])
				}
			}
		case "Q2A", "Q2B", "Q2C":
			col := map[string]string{"Q2A": "srcPrefix8", "Q2B": "srcPrefix10", "Q2C": "srcPrefix12"}[q.Name]
			for i, p := range strs(uv, col) {
				want[p] += int64(rev[i])
			}
		case "Q3A", "Q3B", "Q3C":
			before := map[string]uint64{"Q3A": 30, "Q3B": 120, "Q3C": 365}[q.Name]
			for i := range src {
				if date[i] < before && pageSet[dest[i]] {
					want[src[i]] += int64(rev[i])
				}
			}
		case "Q4":
			for _, k := range keys {
				want[k]++
			}
		default:
			return nil, fmt.Errorf("no oracle for BDB query %s", q.Name)
		}
		return want, nil
	}

	ds := &dataset{tables: bdbTables(b), fact: "uservisits"}
	for _, bq := range workload.BDBQueries() {
		want, err := answer(bq)
		if err != nil {
			return nil, err
		}
		q := &query{name: bq.Name, sql: bq.SQL, groups: bq.ExpectedGroups, want: want}
		q.stream = bq.Name[:2] == "Q1"
		if bq.Name == "Q3A" {
			ds.join = q
		}
		ds.mix = append(ds.mix, q)
	}
	return ds, nil
}

// readerSQL is the ingest workload's reader query.
const readerSQL = "SELECT SUM(adRevenue) FROM uservisits WHERE visitDate < 30"

// readerSum is readerSQL's answer over one uservisits table.
func readerSum(uv *store.Table) int64 {
	date, rev := u64s(uv, "visitDate"), u64s(uv, "adRevenue")
	var sum int64
	for i := range date {
		if date[i] < 30 {
			sum += int64(rev[i])
		}
	}
	return sum
}

func buildIngest(seed int64) (*dataset, error) {
	b, err := workload.GenerateBDB(workload.BDBConfig{
		Pages: ingestVisits / 8, Visits: ingestVisits, Q4Rows: 1, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	tables := bdbTables(b)
	reader := &query{name: "reader", sql: readerSQL, want: map[string]int64{"": readerSum(b.UserVisits)}}
	ds := &dataset{tables: tables[1:2], mix: []*query{reader}, reader: reader, fact: "uservisits"}
	for i := 0; i < appendPool; i++ {
		nb, err := workload.GenerateBDB(workload.BDBConfig{
			Pages: ingestVisits / 8, Visits: appendBatchRows, Q4Rows: 1,
			Seed: seed*1_000_003 + int64(i) + 1,
		})
		if err != nil {
			return nil, err
		}
		ds.batches = append(ds.batches, nb.UserVisits)
		ds.batchSum = append(ds.batchSum, readerSum(nb.UserVisits))
	}
	return ds, nil
}
