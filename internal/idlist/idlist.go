// Package idlist implements the identifier-list data structure that forms the
// second component of an ASHE ciphertext, together with the family of
// encodings Seabed uses to keep the lists small (§4.5, Table 3): range
// encoding, variable-byte (VB) encoding, differential encoding, Deflate
// compression, and a bitmap baseline.
//
// A List is a multiset of 64-bit identifiers held as ordered inclusive
// ranges. Multiset semantics matter: ASHE's homomorphic addition unions the
// identifier multisets of its operands, and decryption must add
// F(i)−F(i−1) once per occurrence of i. Ranges that merely abut ([1,5] then
// [6,9]) coalesce; ranges that overlap (genuine duplicates) are preserved.
package idlist

import "fmt"

// Range is an inclusive identifier interval [Lo, Hi].
type Range struct {
	Lo, Hi uint64
}

// Span returns the number of identifiers the range covers.
func (r Range) Span() uint64 { return r.Hi - r.Lo + 1 }

// List is a multiset of identifiers stored as ranges ordered by Lo.
// The zero value is an empty list ready to use.
type List struct {
	ranges []Range
	n      uint64 // total identifier count, with multiplicity
	// ordered records that ranges are sorted by Lo and that no range abuts
	// its predecessor: the shape Merge's general path leaves a list in.
	// Every mutator keeps it exact (false when empty), so Merge can spot
	// the ordered fold without rescanning l.
	ordered bool
}

// FromRange returns a list containing every identifier in [lo, hi].
func FromRange(lo, hi uint64) List {
	var l List
	l.AppendRange(lo, hi)
	return l
}

// FromRanges reconstructs a list from a previously captured range
// decomposition (see Ranges), verbatim: no coalescing or re-sorting is
// applied, so a list survives a Ranges → FromRanges round trip — the wire
// protocol relies on this. It panics if any range is inverted.
func FromRanges(rs []Range) List {
	var l List
	if len(rs) == 0 {
		return l
	}
	l.ranges = make([]Range, len(rs))
	for i, r := range rs {
		if r.Lo > r.Hi {
			panic(fmt.Sprintf("idlist: FromRanges: range %d [%d, %d] inverted", i, r.Lo, r.Hi))
		}
		l.ranges[i] = r
		l.n += r.Span()
	}
	l.ordered = isOrdered(l.ranges)
	return l
}

// isOrdered reports whether rs is non-empty, sorted by Lo, and free of
// abutting neighbours (see List.ordered).
func isOrdered(rs []Range) bool {
	for i := 1; i < len(rs); i++ {
		if rs[i].Lo < rs[i-1].Lo || abuts(rs[i-1], rs[i].Lo) {
			return false
		}
	}
	return len(rs) > 0
}

// abuts reports whether a range starting at lo continues prev directly, so
// the two coalesce.
func abuts(prev Range, lo uint64) bool {
	return lo == prev.Hi+1 && prev.Hi != ^uint64(0)
}

// FromIDs returns a list containing the given identifiers, which must be in
// non-decreasing order. Consecutive runs collapse into ranges.
func FromIDs(ids []uint64) List {
	var l List
	for _, id := range ids {
		l.Append(id)
	}
	return l
}

// Append adds a single identifier. Appending ids in ascending order is the
// fast path: an id that extends the last range costs no allocation.
func (l *List) Append(id uint64) {
	l.AppendRange(id, id)
}

// AppendRange adds every identifier in [lo, hi]. It panics if lo > hi.
func (l *List) AppendRange(lo, hi uint64) {
	if lo > hi {
		panic(fmt.Sprintf("idlist: AppendRange(%d, %d): lo > hi", lo, hi))
	}
	l.n += hi - lo + 1
	l.push(Range{lo, hi})
}

// push appends r, extending the last range instead when r abuts it.
// Duplicate, overlapping and out-of-order ranges stay separate so the
// multiset survives; they only clear the ordered flag.
func (l *List) push(r Range) {
	k := len(l.ranges)
	if k == 0 {
		l.ordered = true
	} else {
		last := &l.ranges[k-1]
		if abuts(*last, r.Lo) {
			last.Hi = r.Hi
			return
		}
		l.ordered = l.ordered && r.Lo >= last.Lo
	}
	l.ranges = append(l.ranges, r)
}

// Len returns the number of identifiers in the multiset, with multiplicity.
func (l List) Len() uint64 { return l.n }

// NumRanges returns the number of stored ranges.
func (l List) NumRanges() int { return len(l.ranges) }

// Empty reports whether the list holds no identifiers.
func (l List) Empty() bool { return l.n == 0 }

// Ranges returns the underlying ranges. The slice must not be modified.
func (l List) Ranges() []Range { return l.ranges }

// Clone returns a deep copy of the list.
func (l List) Clone() List {
	c := List{n: l.n, ordered: l.ordered}
	if len(l.ranges) > 0 {
		c.ranges = make([]Range, len(l.ranges))
		copy(c.ranges, l.ranges)
	}
	return c
}

// Merge unions another list into l (multiset union). Both lists' ranges are
// merged in Lo order; abutting ranges coalesce, overlapping ranges are kept
// separate so duplicates survive.
//
// When l is ordered and other's first range starts at or after l's last,
// the merge is an append: l's ranges stay as they are and other's follow,
// coalescing at the boundary. That case — the reducer folding task outputs
// in partition order — runs in place in O(len(other)), reusing l's spare
// capacity, so folding many lists costs amortized linear time. Like
// AppendRange, it writes into l's backing array: two List values that share
// one (copies of the same list) must not both be merged into.
func (l *List) Merge(other List) {
	if other.n == 0 {
		return
	}
	if l.n == 0 {
		*l = other.Clone()
		return
	}
	if l.ordered && l.ranges[len(l.ranges)-1].Lo <= other.ranges[0].Lo {
		for _, r := range other.ranges {
			l.push(r)
		}
		l.n += other.n
		return
	}
	// Interleaved lists: a two-way merge by Lo into a fresh slice.
	merged := List{ranges: make([]Range, 0, len(l.ranges)+len(other.ranges)), n: l.n + other.n}
	a, b := l.ranges, other.ranges
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Lo <= b[j].Lo {
			merged.push(a[i])
			i++
		} else {
			merged.push(b[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		merged.push(a[i])
	}
	for ; j < len(b); j++ {
		merged.push(b[j])
	}
	*l = merged
}

// IDs expands the list into individual identifiers, with multiplicity. It is
// intended for tests and for the VB+Diff group-by codec; expanding a list
// covering billions of identifiers will allocate accordingly.
func (l List) IDs() []uint64 {
	out := make([]uint64, 0, l.n)
	for _, r := range l.ranges {
		for id := r.Lo; ; id++ {
			out = append(out, id)
			if id == r.Hi {
				break
			}
		}
	}
	return out
}

// Equal reports whether two lists hold the same multiset in the same range
// decomposition.
func (l List) Equal(other List) bool {
	if l.n != other.n || len(l.ranges) != len(other.ranges) {
		return false
	}
	for i, r := range l.ranges {
		if other.ranges[i] != r {
			return false
		}
	}
	return true
}

// String renders the list compactly, e.g. "[2-14,19-23]".
func (l List) String() string {
	s := "["
	for i, r := range l.ranges {
		if i > 0 {
			s += ","
		}
		if r.Lo == r.Hi {
			s += fmt.Sprintf("%d", r.Lo)
		} else {
			s += fmt.Sprintf("%d-%d", r.Lo, r.Hi)
		}
	}
	return s + "]"
}
