package engine

import (
	"fmt"
	"math/big"
	"time"

	"seabed/internal/idlist"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// This file holds the execution state shared by the vectorized executor
// (compile.go / kernel.go / batch.go) and the retained row-at-a-time
// reference evaluator (reference.go): aggregate accumulators, map-task
// output, and the shuffle-size accounting both paths must agree on.

// cancelCheckRows is how often (in rows) a map task polls its context: a
// power of two so the hot loop's check is one mask and compare. It is a
// whole multiple of batchRows, so the vectorized executor checks on batch
// boundaries at exactly the same row granularity as the reference loop.
const cancelCheckRows = 1 << 16

// groupKey identifies a group within map/reduce bookkeeping. Bytes keys are
// folded into the string field.
type groupKey struct {
	kind   store.Kind
	u64    uint64
	str    string
	suffix int
}

// partial is an in-flight aggregate for one group.
type partial struct {
	rows uint64
	aggs []aggState
}

// aggState is one aggregate's accumulator.
type aggState struct {
	kind      AggKind
	u64       uint64
	ids       idlist.List
	pail      *big.Int
	ope       []byte
	compBytes []byte // byte-valued companion of the winning row
	argID     uint64 // winning row for min/max
	// median collection: every selected row's key material.
	medU64  []uint64
	medOpe  [][]byte
	medComp []uint64
	medIDs  []uint64
	seen    bool // for min/max: whether any row contributed
	// encodedLen is the codec-compressed identifier-list size when the
	// worker compressed it (shuffle accounting).
	encodedLen int
}

func newPartial(aggs []Agg) *partial {
	p := &partial{aggs: make([]aggState, len(aggs))}
	for i, a := range aggs {
		p.aggs[i].kind = a.Kind
		if a.Kind == AggPaillierSum {
			p.aggs[i].pail = a.PK.EncryptZero()
		}
	}
	return p
}

// keyedPartial pairs a group key with its in-flight accumulator inside a
// reducer bucket.
type keyedPartial struct {
	key groupKey
	p   *partial
}

// mapResult is one map task's output.
type mapResult struct {
	single *partial
	// groups is the task's group-by output, already partitioned for the
	// shuffle: groups[b] holds the (key, partial) pairs reducerBucket assigns
	// to reducer b, so the reduce stage concatenates per-bucket slices
	// instead of re-hashing a map per task. Its length is the cluster's
	// Workers count; a key appears in at most one bucket, and at most once
	// per task.
	groups  [][]keyedPartial
	scan    []ScanRow
	elapsed time.Duration
	// bytes is the serialized partial size (shuffle traffic).
	bytes        int
	rowsScanned  uint64
	rowsSelected uint64
	// ops carries the task's per-operator counters (batch-granularity; see
	// OpStats). The reference evaluator leaves it zero except for column
	// pins/faults, which both executors record in runMapTask's shared path.
	ops OpStats
}

// reducerBucket deterministically assigns a group key to one of n reducer
// buckets. Both executors and every shard must agree on the assignment — it
// replaces the old sort-all-distinct-keys round-robin — so it hashes only
// the key's value material (splitmix64 over u64 keys, FNV-1a over
// string/byte keys, the inflation suffix mixed in) and never map iteration
// order.
func reducerBucket(k groupKey, n int) int {
	if n <= 1 {
		return 0
	}
	h := splitmix64(uint64(int64(k.suffix)) ^ 0x5eabed)
	if k.kind == store.U64 {
		h = splitmix64(h ^ k.u64)
	} else {
		f := uint64(14695981039346656037)
		for i := 0; i < len(k.str); i++ {
			f = (f ^ uint64(k.str[i])) * 1099511628211
		}
		h = splitmix64(h ^ f)
	}
	return int(h % uint64(n))
}

// bucketGroups converts a groupKey-keyed map into the reducer-bucketed
// mapResult contract. The reference evaluator's row loop still accumulates
// into a map (that loop is behaviorally frozen); this conversion is its only
// concession to the bucketed shuffle.
func bucketGroups(groups map[groupKey]*partial, n int) [][]keyedPartial {
	out := make([][]keyedPartial, n)
	for k, p := range groups {
		b := reducerBucket(k, n)
		out[b] = append(out[b], keyedPartial{key: k, p: p})
	}
	return out
}

// rangeBounds intersects a partition with the plan's optional IDRange frame
// (§4.5 scatter-gather shard scoping) and returns the index interval
// [i0, i1] of in-scope rows. Row identifiers are contiguous within a
// partition, so the scope is a simple interval; a partition wholly outside
// yields i1 < i0 and scans nothing.
func rangeBounds(part *store.Partition, r *IDRange) (i0, i1 int) {
	n := part.NumRows()
	i0, i1 = 0, n-1
	if r == nil || n == 0 {
		return i0, i1
	}
	first, last := part.StartID, part.StartID+uint64(n)-1
	if r.Lo > last || r.Hi < first || r.Lo > r.Hi {
		return 0, -1
	}
	if r.Lo > first {
		i0 = int(r.Lo - first)
	}
	if r.Hi < last {
		i1 = int(r.Hi - first)
	}
	return i0, i1
}

// flattenRight concatenates the right table's partitions per column. A
// view-backed right table is pinned resident for the walk; the appends below
// copy into fresh heap vectors, so nothing aliases the views after release.
func flattenRight(t *store.Table, cols []string, key string) (map[string]*store.Column, error) {
	for _, p := range t.Parts {
		release, err := p.Pin(nil)
		if err != nil {
			return nil, err
		}
		defer release()
	}
	names := append([]string{key}, cols...)
	out := make(map[string]*store.Column, len(names))
	for _, name := range names {
		if _, ok := out[name]; ok {
			continue
		}
		kind, err := t.ColKind(name)
		if err != nil {
			return nil, err
		}
		full := &store.Column{Name: name, Kind: kind}
		for _, p := range t.Parts {
			c := p.Col(name)
			if c == nil {
				return nil, fmt.Errorf("engine: join table %q partition missing column %q", t.Name, name)
			}
			switch kind {
			case store.U64:
				full.U64 = append(full.U64, c.U64...)
			case store.Bytes:
				full.Bytes = append(full.Bytes, c.Bytes...)
			default:
				full.Str = append(full.Str, c.Str...)
			}
		}
		out[name] = full
	}
	return out, nil
}

// splitmix64 is the deterministic per-row hash behind FilterRandom and group
// inflation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func cmpMatch(op sqlparse.CmpOp, cmp int) bool {
	switch op {
	case sqlparse.OpEq:
		return cmp == 0
	case sqlparse.OpNe:
		return cmp != 0
	case sqlparse.OpLt:
		return cmp < 0
	case sqlparse.OpLe:
		return cmp <= 0
	case sqlparse.OpGt:
		return cmp > 0
	case sqlparse.OpGe:
		return cmp >= 0
	}
	return false
}

func cmpU64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// encodePartialIDs compresses ASHE identifier lists at the worker (§4.5) so
// the encoded size can ride in the aggState and keep shuffle sizes honest.
// The reducer shares the map task's memory, so it merges the raw list the
// task built: decoding the bytes would only rebuild that same list, which
// TestMapTaskIDListsRoundTrip checks for every codec.
func encodePartialIDs(p *partial, codec idlist.Codec) error {
	for i := range p.aggs {
		st := &p.aggs[i]
		if st.kind != AggAsheSum || st.ids.Empty() {
			continue
		}
		enc, err := codec.Encode(st.ids)
		if err != nil {
			return fmt.Errorf("engine: encode id list: %v", err)
		}
		st.encodedLen = len(enc)
	}
	return nil
}

// partialBytes estimates the serialized size of a map task's output.
func (pl *Plan) partialBytes(res *mapResult, codec idlist.Codec) int {
	total := 0
	addPartial := func(key *groupKey, p *partial) {
		if key != nil {
			switch key.kind {
			case store.U64:
				total += 8
			default:
				total += len(key.str)
			}
			if key.suffix >= 0 {
				total += 2
			}
		}
		total += 8 // row count
		for i := range p.aggs {
			st := &p.aggs[i]
			switch st.kind {
			case AggCount, AggPlainSum, AggPlainSumSq, AggPlainMin, AggPlainMax:
				total += 8
			case AggAsheSum:
				total += 8
				if pl.CompressAtDriver {
					total += 16 * st.ids.NumRanges() // raw ranges on the wire
				} else {
					total += st.encodedLen
				}
			case AggPaillierSum:
				total += pl.Aggs[i].PK.CiphertextSize()
			case AggOpeMin, AggOpeMax:
				total += len(st.ope)
			case AggPlainMedian:
				total += 8 * len(st.medU64)
			case AggOpeMedian:
				total += opeMedianBytes(st.medOpe)
			}
		}
	}
	if res.single != nil {
		addPartial(nil, res.single)
	}
	for _, kps := range res.groups {
		for i := range kps {
			addPartial(&kps[i].key, kps[i].p)
		}
	}
	for _, row := range res.scan {
		total += 8
		for i := range row.U64s {
			total += 8
			total += len(row.Bytes[i])
			total += len(row.Strs[i])
		}
	}
	return total
}

// opeMedianBytes sizes a collected OPE median shuffle payload from the
// actual ciphertext lengths (OPE ciphertexts are variable-length), plus the
// row identifier and companion value each element carries.
func opeMedianBytes(medOpe [][]byte) int {
	total := 0
	for _, ct := range medOpe {
		total += len(ct) + 16
	}
	return total
}

// takeCompanion records the companion-column value of a new min/max winner.
func (st *aggState) takeCompanion(comp *store.Column, j int) {
	if comp == nil {
		return
	}
	if comp.Kind == store.Bytes {
		st.compBytes = comp.Bytes[j]
		return
	}
	st.u64 = comp.U64[j]
}
