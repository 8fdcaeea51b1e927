package engine

import (
	"bytes"
	"fmt"
	"math/big"

	"seabed/internal/ope"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// This file holds the executor's kernels: per-kind, per-operator functions
// compiled once per Run (compile.go) and invoked once per batch (batch.go).
// Predicate kernels compact a selection vector in place; accumulator kernels
// fold the survivors into an aggState, either in one tight loop over the raw
// column slice (the single-group bulk path) or one row at a time (the
// group-by path, where rows scatter across partials). Neither path contains
// a switch over FilterKind or AggKind: the switch ran at compile time.

// partCols is a compiled plan bound to one partition: the concrete column
// vectors every kernel reads. Slots mirror the plan's filters/aggs/project
// order; nil entries are FilterRandom / AggCount placeholders.
type partCols struct {
	filters    []*store.Column
	aggs       []*store.Column
	companions []*store.Column
	group      *store.Column
	project    []*store.Column
	leftKey    *store.Column
}

// batch is the executor's working set for one batchRows-sized slice of a
// partition. sel holds the indices (relative to the partition) of rows still
// alive; join holds the matched right-table row for each sel entry, parallel
// to sel, and is nil for plans without a join. Predicate kernels compact
// both in place.
type batch struct {
	sel  []int32
	join []int32
}

// predKernel applies one compiled filter to a batch, compacting b.sel (and
// b.join, when present) to the survivors. startID is the partition's first
// global row identifier, so row i's identifier is startID + i.
type predKernel func(pc *partCols, b *batch, startID uint64)

// aggKernel accumulates one compiled aggregate. bulk consumes a whole
// batch's selection vector into a single group's state; row accumulates one
// survivor (i = left row, j = joined right row or -1) for the group-by
// path; dense consumes the contiguous row interval [lo, hi] directly — the
// executor takes that path when a plan has no filters and no join, so every
// batch survives whole and the selection vector would be the identity.
type aggKernel struct {
	bulk  func(pc *partCols, st *aggState, b *batch, startID uint64)
	row   func(pc *partCols, st *aggState, i, j int32, rowID uint64)
	dense func(pc *partCols, st *aggState, lo, hi int, startID uint64)
}

// rowPred lifts a per-row predicate into a predKernel. It is the generic
// driver for filter kinds whose comparison dominates the call overhead
// (DET/OPE/string comparisons) and for right-side columns, where every row
// indexes through the join vector anyway.
func rowPred(match func(pc *partCols, i, j int32, rowID uint64) bool) predKernel {
	return func(pc *partCols, b *batch, startID uint64) {
		out := b.sel[:0]
		if b.join == nil {
			for _, i := range b.sel {
				if match(pc, i, -1, startID+uint64(i)) {
					out = append(out, i)
				}
			}
			b.sel = out
			return
		}
		jout := b.join[:0]
		for k, i := range b.sel {
			if match(pc, i, b.join[k], startID+uint64(i)) {
				out = append(out, i)
				jout = append(jout, b.join[k])
			}
		}
		b.sel, b.join = out, jout
	}
}

// compileFilter lowers one filter to a predicate kernel. Plain u64 and OPE
// comparisons on left-side columns of join-free plans get fully specialized
// per operator — the hot paths of a filtered scan; everything else goes
// through the rowPred driver with the kind dispatch resolved here, once.
func (cp *compiledPlan) compileFilter(fi int, f *Filter) (predKernel, error) {
	right := cp.filters[fi].isRight() && f.Kind != FilterRandom
	vectorizable := cp.pl.Join == nil && !right

	switch f.Kind {
	case FilterRandom:
		if f.Prob >= 1 {
			return func(pc *partCols, b *batch, startID uint64) {}, nil
		}
		threshold := uint64(f.Prob*float64(1<<63)) << 1
		seed := f.Seed
		if vectorizable {
			return func(pc *partCols, b *batch, startID uint64) {
				out := b.sel[:0]
				for _, i := range b.sel {
					if splitmix64(seed^(startID+uint64(i))) < threshold {
						out = append(out, i)
					}
				}
				b.sel = out
			}, nil
		}
		return rowPred(func(pc *partCols, i, j int32, rowID uint64) bool {
			return splitmix64(seed^rowID) < threshold
		}), nil

	case FilterPlainCmp:
		c := f.U64
		if vectorizable {
			return plainCmpKernel(fi, f.Op, c)
		}
		op := f.Op
		return rowPred(func(pc *partCols, i, j int32, rowID uint64) bool {
			v := pc.filters[fi].U64[pick(i, j, right)]
			return cmpMatch(op, cmpU64(v, c))
		}), nil

	case FilterStrCmp:
		c, op := f.Str, f.Op
		return rowPred(func(pc *partCols, i, j int32, rowID uint64) bool {
			v := pc.filters[fi].Str[pick(i, j, right)]
			var cmp int
			switch {
			case v < c:
				cmp = -1
			case v > c:
				cmp = 1
			}
			return cmpMatch(op, cmp)
		}), nil

	case FilterDetEq:
		want, neg := f.Bytes, f.Negate
		if vectorizable {
			return func(pc *partCols, b *batch, startID uint64) {
				col := pc.filters[fi].Bytes
				out := b.sel[:0]
				for _, i := range b.sel {
					if bytes.Equal(col[i], want) != neg {
						out = append(out, i)
					}
				}
				b.sel = out
			}, nil
		}
		return rowPred(func(pc *partCols, i, j int32, rowID uint64) bool {
			return bytes.Equal(pc.filters[fi].Bytes[pick(i, j, right)], want) != neg
		}), nil

	case FilterOpeCmp:
		want, op := f.Bytes, f.Op
		if vectorizable && len(want) == ope.CiphertextSize {
			return opeCmpKernel(fi, op, (*[ope.CiphertextSize]byte)(want)), nil
		}
		return rowPred(func(pc *partCols, i, j int32, rowID uint64) bool {
			return cmpMatch(op, ope.Compare(pc.filters[fi].Bytes[pick(i, j, right)], want))
		}), nil
	}
	return nil, fmt.Errorf("engine: unknown filter kind %d", f.Kind)
}

// plainCmpKernel returns the operator-specialized u64 comparison kernel for
// a left-side column of a join-free plan: one branch per row, no calls.
func plainCmpKernel(fi int, op sqlparse.CmpOp, c uint64) (predKernel, error) {
	switch op {
	case sqlparse.OpEq:
		return func(pc *partCols, b *batch, _ uint64) {
			col, out := pc.filters[fi].U64, b.sel[:0]
			for _, i := range b.sel {
				if col[i] == c {
					out = append(out, i)
				}
			}
			b.sel = out
		}, nil
	case sqlparse.OpNe:
		return func(pc *partCols, b *batch, _ uint64) {
			col, out := pc.filters[fi].U64, b.sel[:0]
			for _, i := range b.sel {
				if col[i] != c {
					out = append(out, i)
				}
			}
			b.sel = out
		}, nil
	case sqlparse.OpLt:
		return func(pc *partCols, b *batch, _ uint64) {
			col, out := pc.filters[fi].U64, b.sel[:0]
			for _, i := range b.sel {
				if col[i] < c {
					out = append(out, i)
				}
			}
			b.sel = out
		}, nil
	case sqlparse.OpLe:
		return func(pc *partCols, b *batch, _ uint64) {
			col, out := pc.filters[fi].U64, b.sel[:0]
			for _, i := range b.sel {
				if col[i] <= c {
					out = append(out, i)
				}
			}
			b.sel = out
		}, nil
	case sqlparse.OpGt:
		return func(pc *partCols, b *batch, _ uint64) {
			col, out := pc.filters[fi].U64, b.sel[:0]
			for _, i := range b.sel {
				if col[i] > c {
					out = append(out, i)
				}
			}
			b.sel = out
		}, nil
	case sqlparse.OpGe:
		return func(pc *partCols, b *batch, _ uint64) {
			col, out := pc.filters[fi].U64, b.sel[:0]
			for _, i := range b.sel {
				if col[i] >= c {
					out = append(out, i)
				}
			}
			b.sel = out
		}, nil
	}
	return selectNone, nil
}

// selectNone is the kernel for an unknown operator: it selects nothing,
// matching cmpMatch's default.
func selectNone(pc *partCols, b *batch, _ uint64) {
	b.sel = b.sel[:0]
	if b.join != nil {
		b.join = b.join[:0]
	}
}

// opeCmpKernel returns the operator-specialized OPE range-filter kernel for
// a left-side column of a join-free plan whose constant is a full-size
// ciphertext. The length check runs here, once: hostile constants of any
// other length take rowPred, and slicing c hands ope.Compare a
// constant-length operand, so per row only the stored ciphertext's length
// is checked before the word-wide comparison. Each operator is one sign
// test of that comparison, negated for its complement — no cmpMatch switch
// and no closure call per row.
func opeCmpKernel(fi int, op sqlparse.CmpOp, c *[ope.CiphertextSize]byte) predKernel {
	switch op {
	case sqlparse.OpEq, sqlparse.OpNe:
		neg := op == sqlparse.OpNe
		return func(pc *partCols, b *batch, _ uint64) {
			col, out := pc.filters[fi].Bytes, b.sel[:0]
			for _, i := range b.sel {
				if (ope.Compare(col[i], c[:]) == 0) != neg {
					out = append(out, i)
				}
			}
			b.sel = out
		}
	case sqlparse.OpLt, sqlparse.OpGe:
		neg := op == sqlparse.OpGe
		return func(pc *partCols, b *batch, _ uint64) {
			col, out := pc.filters[fi].Bytes, b.sel[:0]
			for _, i := range b.sel {
				if (ope.Compare(col[i], c[:]) < 0) != neg {
					out = append(out, i)
				}
			}
			b.sel = out
		}
	case sqlparse.OpGt, sqlparse.OpLe:
		neg := op == sqlparse.OpLe
		return func(pc *partCols, b *batch, _ uint64) {
			col, out := pc.filters[fi].Bytes, b.sel[:0]
			for _, i := range b.sel {
				if (ope.Compare(col[i], c[:]) > 0) != neg {
					out = append(out, i)
				}
			}
			b.sel = out
		}
	}
	return selectNone
}

// pick maps a (left row, joined row) pair to the index a column reads,
// resolved by the compile-time side flag.
func pick(i, j int32, right bool) int32 {
	if right {
		return j
	}
	return i
}

// compileAgg lowers one aggregate to its bulk and row accumulators. The
// bulk path runs a tight per-kind loop over the raw column slice via the
// selection vector — the u64 sum kernels allocate nothing.
func (cp *compiledPlan) compileAgg(ai int, a *Agg) aggKernel {
	right := cp.aggCols[ai].isRight() && a.Kind != AggCount

	switch a.Kind {
	case AggCount:
		return aggKernel{
			bulk: func(pc *partCols, st *aggState, b *batch, _ uint64) {
				st.u64 += uint64(len(b.sel))
			},
			row: func(pc *partCols, st *aggState, i, j int32, rowID uint64) {
				st.u64++
			},
			dense: func(pc *partCols, st *aggState, lo, hi int, _ uint64) {
				st.u64 += uint64(hi - lo + 1)
			},
		}

	case AggPlainSum:
		return aggKernel{
			bulk: func(pc *partCols, st *aggState, b *batch, _ uint64) {
				col := pc.aggs[ai].U64
				var s uint64
				if right {
					for _, j := range b.join {
						s += col[j]
					}
				} else {
					for _, i := range b.sel {
						s += col[i]
					}
				}
				st.u64 += s
			},
			row: func(pc *partCols, st *aggState, i, j int32, rowID uint64) {
				st.u64 += pc.aggs[ai].U64[pick(i, j, right)]
			},
			dense: func(pc *partCols, st *aggState, lo, hi int, _ uint64) {
				var s uint64
				for _, v := range pc.aggs[ai].U64[lo : hi+1] {
					s += v
				}
				st.u64 += s
			},
		}

	case AggPlainSumSq:
		return aggKernel{
			bulk: func(pc *partCols, st *aggState, b *batch, _ uint64) {
				col := pc.aggs[ai].U64
				var s uint64
				if right {
					for _, j := range b.join {
						s += col[j] * col[j]
					}
				} else {
					for _, i := range b.sel {
						s += col[i] * col[i]
					}
				}
				st.u64 += s
			},
			row: func(pc *partCols, st *aggState, i, j int32, rowID uint64) {
				v := pc.aggs[ai].U64[pick(i, j, right)]
				st.u64 += v * v
			},
			dense: func(pc *partCols, st *aggState, lo, hi int, _ uint64) {
				var s uint64
				for _, v := range pc.aggs[ai].U64[lo : hi+1] {
					s += v * v
				}
				st.u64 += s
			},
		}

	case AggAsheSum:
		return aggKernel{
			bulk: func(pc *partCols, st *aggState, b *batch, startID uint64) {
				col := pc.aggs[ai].U64
				if right {
					for k, i := range b.sel {
						st.u64 += col[b.join[k]]
						st.ids.Append(startID + uint64(i))
					}
				} else {
					for _, i := range b.sel {
						st.u64 += col[i]
						st.ids.Append(startID + uint64(i))
					}
				}
			},
			row: func(pc *partCols, st *aggState, i, j int32, rowID uint64) {
				st.u64 += pc.aggs[ai].U64[pick(i, j, right)]
				st.ids.Append(rowID)
			},
			// A dense batch's identifiers are one contiguous run, so the
			// id-list grows by a single range — no per-row Append at all.
			dense: func(pc *partCols, st *aggState, lo, hi int, startID uint64) {
				var s uint64
				for _, v := range pc.aggs[ai].U64[lo : hi+1] {
					s += v
				}
				st.u64 += s
				st.ids.AppendRange(startID+uint64(lo), startID+uint64(hi))
			},
		}

	case AggPaillierSum:
		pk := a.PK
		row := func(pc *partCols, st *aggState, i, j int32, rowID uint64) {
			pk.AddInto(st.pail, new(big.Int).SetBytes(pc.aggs[ai].Bytes[pick(i, j, right)]))
		}
		return aggKernel{bulk: rowBulk(row), row: row, dense: rowDense(row)}

	case AggPlainMin:
		return aggKernel{
			bulk: func(pc *partCols, st *aggState, b *batch, _ uint64) {
				col := pc.aggs[ai].U64
				if right {
					for _, j := range b.join {
						if v := col[j]; !st.seen || v < st.u64 {
							st.u64, st.seen = v, true
						}
					}
				} else {
					for _, i := range b.sel {
						if v := col[i]; !st.seen || v < st.u64 {
							st.u64, st.seen = v, true
						}
					}
				}
			},
			row: func(pc *partCols, st *aggState, i, j int32, rowID uint64) {
				if v := pc.aggs[ai].U64[pick(i, j, right)]; !st.seen || v < st.u64 {
					st.u64, st.seen = v, true
				}
			},
			dense: func(pc *partCols, st *aggState, lo, hi int, _ uint64) {
				for _, v := range pc.aggs[ai].U64[lo : hi+1] {
					if !st.seen || v < st.u64 {
						st.u64, st.seen = v, true
					}
				}
			},
		}

	case AggPlainMax:
		return aggKernel{
			bulk: func(pc *partCols, st *aggState, b *batch, _ uint64) {
				col := pc.aggs[ai].U64
				if right {
					for _, j := range b.join {
						if v := col[j]; !st.seen || v > st.u64 {
							st.u64, st.seen = v, true
						}
					}
				} else {
					for _, i := range b.sel {
						if v := col[i]; !st.seen || v > st.u64 {
							st.u64, st.seen = v, true
						}
					}
				}
			},
			row: func(pc *partCols, st *aggState, i, j int32, rowID uint64) {
				if v := pc.aggs[ai].U64[pick(i, j, right)]; !st.seen || v > st.u64 {
					st.u64, st.seen = v, true
				}
			},
			dense: func(pc *partCols, st *aggState, lo, hi int, _ uint64) {
				for _, v := range pc.aggs[ai].U64[lo : hi+1] {
					if !st.seen || v > st.u64 {
						st.u64, st.seen = v, true
					}
				}
			},
		}

	case AggOpeMin:
		row := func(pc *partCols, st *aggState, i, j int32, rowID uint64) {
			idx := pick(i, j, right)
			if v := pc.aggs[ai].Bytes[idx]; !st.seen || ope.Less(v, st.ope) {
				st.ope, st.argID, st.seen = v, rowID, true
				st.takeCompanion(pc.companions[ai], int(idx))
			}
		}
		return aggKernel{bulk: rowBulk(row), row: row, dense: rowDense(row)}

	case AggOpeMax:
		row := func(pc *partCols, st *aggState, i, j int32, rowID uint64) {
			idx := pick(i, j, right)
			if v := pc.aggs[ai].Bytes[idx]; !st.seen || ope.Less(st.ope, v) {
				st.ope, st.argID, st.seen = v, rowID, true
				st.takeCompanion(pc.companions[ai], int(idx))
			}
		}
		return aggKernel{bulk: rowBulk(row), row: row, dense: rowDense(row)}

	case AggPlainMedian:
		return aggKernel{
			bulk: func(pc *partCols, st *aggState, b *batch, _ uint64) {
				col := pc.aggs[ai].U64
				if right {
					for _, j := range b.join {
						st.medU64 = append(st.medU64, col[j])
					}
				} else {
					for _, i := range b.sel {
						st.medU64 = append(st.medU64, col[i])
					}
				}
			},
			row: func(pc *partCols, st *aggState, i, j int32, rowID uint64) {
				st.medU64 = append(st.medU64, pc.aggs[ai].U64[pick(i, j, right)])
			},
			dense: func(pc *partCols, st *aggState, lo, hi int, _ uint64) {
				st.medU64 = append(st.medU64, pc.aggs[ai].U64[lo:hi+1]...)
			},
		}

	case AggOpeMedian:
		row := func(pc *partCols, st *aggState, i, j int32, rowID uint64) {
			idx := pick(i, j, right)
			st.medOpe = append(st.medOpe, pc.aggs[ai].Bytes[idx])
			st.medIDs = append(st.medIDs, rowID)
			if comp := pc.companions[ai]; comp != nil {
				st.medComp = append(st.medComp, comp.U64[idx])
			}
		}
		return aggKernel{bulk: rowBulk(row), row: row, dense: rowDense(row)}
	}
	// Unknown kinds accumulate nothing (Plan validation rejects them before
	// execution reaches here).
	nop := func(pc *partCols, st *aggState, i, j int32, rowID uint64) {}
	return aggKernel{bulk: rowBulk(nop), row: nop, dense: rowDense(nop)}
}

// rowBulk lifts a row accumulator into a bulk one for aggregate kinds whose
// per-row work (OPE comparisons, slice appends) dwarfs the call overhead.
func rowBulk(row func(pc *partCols, st *aggState, i, j int32, rowID uint64)) func(pc *partCols, st *aggState, b *batch, startID uint64) {
	return func(pc *partCols, st *aggState, b *batch, startID uint64) {
		for k, i := range b.sel {
			row(pc, st, i, b.joinAt(k), startID+uint64(i))
		}
	}
}

// rowDense lifts a row accumulator into a dense-interval one. Dense batches
// only exist for join-free plans, so the joined-row argument is always -1.
func rowDense(row func(pc *partCols, st *aggState, i, j int32, rowID uint64)) func(pc *partCols, st *aggState, lo, hi int, startID uint64) {
	return func(pc *partCols, st *aggState, lo, hi int, startID uint64) {
		for i := lo; i <= hi; i++ {
			row(pc, st, int32(i), -1, startID+uint64(i))
		}
	}
}

// joinAt returns the joined right-table row for sel entry k, or -1 when the
// plan has no join.
func (b *batch) joinAt(k int) int32 {
	if b.join == nil {
		return -1
	}
	return b.join[k]
}

// accumulateLanes runs the flat-lane group accumulators over one batch:
// for each lane-eligible aggregate, a tight per-kind loop over the
// (selection, slot) pairs groupSlots resolved, writing straight into the
// per-slot u64 lanes — one cache-dense array per aggregate, no partial
// pointer chase and no per-row indirect call. The AggKind switch runs once
// per aggregate per batch, amortized to noise.
func (ts *taskState) accumulateLanes(startID uint64) {
	g := &ts.g
	sel := ts.b.sel
	slots := g.slots[:len(sel)]
	rows := g.rowsLane
	for _, s := range slots {
		rows[s]++
	}
	for ai := range g.aggs {
		lane := g.aggLanes[ai]
		col := ts.pc.aggs[ai]
		right := ts.cp.aggCols[ai].isRight()
		switch g.aggs[ai].Kind {
		case AggCount:
			for _, s := range slots {
				lane[s]++
			}
		case AggPlainSum:
			u := col.U64
			if right {
				join := ts.b.join
				for k := range sel {
					lane[slots[k]] += u[join[k]]
				}
			} else {
				for k, i := range sel {
					lane[slots[k]] += u[i]
				}
			}
		case AggPlainSumSq:
			u := col.U64
			if right {
				join := ts.b.join
				for k := range sel {
					v := u[join[k]]
					lane[slots[k]] += v * v
				}
			} else {
				for k, i := range sel {
					v := u[i]
					lane[slots[k]] += v * v
				}
			}
		case AggAsheSum:
			u := col.U64
			ids := g.idLanes[ai]
			if right {
				join := ts.b.join
				for k, i := range sel {
					s := slots[k]
					lane[s] += u[join[k]]
					ids[s].Append(startID + uint64(i))
				}
			} else {
				for k, i := range sel {
					s := slots[k]
					lane[s] += u[i]
					ids[s].Append(startID + uint64(i))
				}
			}
		case AggPlainMin:
			u := col.U64
			if right {
				join := ts.b.join
				for k := range sel {
					if s, v := slots[k], u[join[k]]; v < lane[s] {
						lane[s] = v
					}
				}
			} else {
				for k, i := range sel {
					if s, v := slots[k], u[i]; v < lane[s] {
						lane[s] = v
					}
				}
			}
		case AggPlainMax:
			u := col.U64
			if right {
				join := ts.b.join
				for k := range sel {
					if s, v := slots[k], u[join[k]]; v > lane[s] {
						lane[s] = v
					}
				}
			} else {
				for k, i := range sel {
					if s, v := slots[k], u[i]; v > lane[s] {
						lane[s] = v
					}
				}
			}
		}
	}
}
