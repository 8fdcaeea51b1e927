package idlist

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAppendCoalesces(t *testing.T) {
	var l List
	for id := uint64(1); id <= 100; id++ {
		l.Append(id)
	}
	if l.NumRanges() != 1 {
		t.Fatalf("ascending appends produced %d ranges, want 1", l.NumRanges())
	}
	if l.Len() != 100 {
		t.Fatalf("Len = %d, want 100", l.Len())
	}
	if l.Ranges()[0] != (Range{1, 100}) {
		t.Fatalf("range = %v, want [1,100]", l.Ranges()[0])
	}
}

func TestAppendGaps(t *testing.T) {
	var l List
	for _, id := range []uint64{2, 3, 4, 9, 23} {
		l.Append(id)
	}
	if got := l.String(); got != "[2-4,9,23]" {
		t.Fatalf("String = %q", got)
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d, want 5", l.Len())
	}
}

func TestAppendRangePanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for lo > hi")
		}
	}()
	var l List
	l.AppendRange(10, 5)
}

func TestMergeCoalescesAbutting(t *testing.T) {
	a := FromRange(1, 50)
	b := FromRange(51, 100)
	a.Merge(b)
	if a.NumRanges() != 1 || a.Len() != 100 {
		t.Fatalf("merge of abutting ranges: %v (len %d)", a.String(), a.Len())
	}
}

func TestMergePreservesDuplicates(t *testing.T) {
	a := FromRange(1, 10)
	b := FromRange(5, 15)
	a.Merge(b)
	if a.Len() != 21 {
		t.Fatalf("multiset merge Len = %d, want 21", a.Len())
	}
	// IDs 5..10 must appear twice.
	counts := map[uint64]int{}
	for _, id := range a.IDs() {
		counts[id]++
	}
	for id := uint64(5); id <= 10; id++ {
		if counts[id] != 2 {
			t.Fatalf("id %d count = %d, want 2", id, counts[id])
		}
	}
}

func TestMergeInterleaved(t *testing.T) {
	var a, b List
	for id := uint64(1); id <= 1000; id += 2 {
		a.Append(id)
	}
	for id := uint64(2); id <= 1000; id += 2 {
		b.Append(id)
	}
	a.Merge(b)
	if a.NumRanges() != 1 || a.Len() != 1000 {
		t.Fatalf("interleaved merge: ranges=%d len=%d, want 1/1000", a.NumRanges(), a.Len())
	}
}

func TestMergeEmpty(t *testing.T) {
	var a List
	b := FromRange(3, 7)
	a.Merge(b)
	if !a.Equal(b) {
		t.Fatal("merge into empty must equal other")
	}
	c := FromRange(3, 7)
	var empty List
	c.Merge(empty)
	if !c.Equal(b) {
		t.Fatal("merge of empty must be identity")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromRange(1, 10)
	c := a.Clone()
	a.Append(11)
	if c.Len() != 10 {
		t.Fatal("clone shares state with original")
	}
}

// randomList builds a pseudo-random list with the given number of runs.
func randomList(rng *rand.Rand, runs int) List {
	var l List
	cur := uint64(rng.Intn(100) + 1)
	for i := 0; i < runs; i++ {
		span := uint64(rng.Intn(50))
		l.AppendRange(cur, cur+span)
		cur += span + uint64(rng.Intn(100)) + 2 // keep a gap so runs stay distinct
	}
	return l
}

func TestCodecRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, codec := range AllCodecs() {
		t.Run(codec.Name(), func(t *testing.T) {
			for trial := 0; trial < 50; trial++ {
				l := randomList(rng, rng.Intn(30)+1)
				data, err := codec.Encode(l)
				if err != nil {
					t.Fatalf("encode: %v", err)
				}
				got, err := codec.Decode(data)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if !reflect.DeepEqual(got.IDs(), l.IDs()) {
					t.Fatalf("roundtrip mismatch:\n  in  %s\n  out %s", l, got)
				}
			}
		})
	}
}

func TestCodecRoundtripEmpty(t *testing.T) {
	for _, codec := range AllCodecs() {
		data, err := codec.Encode(List{})
		if err != nil {
			t.Fatalf("%s: encode empty: %v", codec.Name(), err)
		}
		got, err := codec.Decode(data)
		if err != nil {
			t.Fatalf("%s: decode empty: %v", codec.Name(), err)
		}
		if !got.Empty() {
			t.Fatalf("%s: decoded non-empty list from empty input", codec.Name())
		}
	}
}

func TestCodecRoundtripProperty(t *testing.T) {
	f := func(seed int64, runs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := randomList(rng, int(runs%20)+1)
		for _, codec := range AllCodecs() {
			data, err := codec.Encode(l)
			if err != nil {
				return false
			}
			got, err := codec.Decode(data)
			if err != nil {
				return false
			}
			if got.Len() != l.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapRejectsDuplicates(t *testing.T) {
	a := FromRange(1, 10)
	a.Merge(FromRange(5, 6))
	if _, err := Bitmap.Encode(a); err == nil {
		t.Fatal("bitmap must reject multisets with duplicates")
	}
}

func TestRangeEncodingBeatsVBDiffOnDenseLists(t *testing.T) {
	// A fully contiguous selection (selectivity 100%) is the best case for
	// range encoding (§6.4): constant size vs linear for per-id encodings.
	l := FromRange(1, 100000)
	rv, err := RangeVBDiff.Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	vd, err := VBDiff.Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(rv) >= len(vd)/100 {
		t.Fatalf("range encoding (%dB) should be tiny vs vb+diff (%dB) on contiguous lists", len(rv), len(vd))
	}
}

func TestDiffEncodingShrinksLargeIDs(t *testing.T) {
	// Lists with large absolute ids but small gaps shrink under Diff (§4.5).
	var l List
	base := uint64(1) << 40
	for i := uint64(0); i < 1000; i++ {
		l.Append(base + i*3)
	}
	abs, err := RangeVB.Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := RangeVBDiff.Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) >= len(abs) {
		t.Fatalf("diff (%dB) should beat absolute (%dB) for large ids with small gaps", len(diff), len(abs))
	}
}

func TestEveryOtherRowCompressesWellUnderDeflate(t *testing.T) {
	// §6.1: selecting all even rows doubles the raw range list, but the
	// differences are constant so stock compression works very well.
	var l List
	for id := uint64(2); id <= 200000; id += 2 {
		l.Append(id)
	}
	raw, err := RangeVBDiff.Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := RangeVBDiffDeflateFast.Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(raw)/10 {
		t.Fatalf("deflate (%dB) should compress the regular pattern far below raw (%dB)", len(comp), len(raw))
	}
}

func TestTable3Examples(t *testing.T) {
	// Table 3's running example: [2..14, 19..23].
	var l List
	l.AppendRange(2, 14)
	l.AppendRange(19, 23)
	if got := l.String(); got != "[2-14,19-23]" {
		t.Fatalf("String = %q, want [2-14,19-23]", got)
	}
	data, err := RangeVBDiff.Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RangeVBDiff.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(l) {
		t.Fatalf("roundtrip: %s", got)
	}
}

func BenchmarkEncodeDefaultDense(b *testing.B) {
	l := FromRange(1, 1<<20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Default.Encode(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDefaultSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	l := randomList(rng, 10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Default.Encode(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randomList(rng, 5000)
	y := randomList(rng, 5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := x.Clone()
		c.Merge(y)
	}
}

// seedMerge is the two-way merge Merge performed before it gained the
// in-place ordered path, kept verbatim as the oracle for that path.
func seedMerge(l, other List) []Range {
	if other.n == 0 {
		return l.ranges
	}
	if l.n == 0 {
		return other.ranges
	}
	merged := make([]Range, 0, len(l.ranges)+len(other.ranges))
	a, b := l.ranges, other.ranges
	i, j := 0, 0
	push := func(r Range) {
		if k := len(merged); k > 0 {
			last := &merged[k-1]
			if r.Lo == last.Hi+1 && last.Hi != ^uint64(0) {
				last.Hi = r.Hi
				return
			}
		}
		merged = append(merged, r)
	}
	for i < len(a) && j < len(b) {
		if a[i].Lo <= b[j].Lo {
			push(a[i])
			i++
		} else {
			push(b[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		push(a[i])
	}
	for ; j < len(b); j++ {
		push(b[j])
	}
	return merged
}

// messyRanges builds up to n ranges starting near from, mixing ascending
// runs with duplicates, overlaps, out-of-order ranges and abutting pairs.
func messyRanges(rng *rand.Rand, from uint64, n int) []Range {
	rs := make([]Range, 0, n)
	cur := from
	for i := 0; i < n; i++ {
		var r Range
		switch k := rng.Intn(10); {
		case k < 5 || len(rs) == 0: // ascending, sometimes abutting
			lo := cur + uint64(rng.Intn(3))
			r = Range{lo, lo + uint64(rng.Intn(8))}
		case k < 7: // duplicate of / overlap with the previous range
			p := rs[len(rs)-1]
			r = Range{p.Lo + uint64(rng.Intn(int(p.Span()))), p.Hi + uint64(rng.Intn(3))}
		case k < 8: // exactly abutting the previous range
			p := rs[len(rs)-1]
			r = Range{p.Hi + 1, p.Hi + 1 + uint64(rng.Intn(4))}
		default: // out of order
			lo := from + uint64(rng.Intn(int(cur-from)+1))
			r = Range{lo, lo + uint64(rng.Intn(5))}
		}
		rs = append(rs, r)
		if r.Hi+1 > cur {
			cur = r.Hi + 1
		}
	}
	return rs
}

// checkOrderedFlag asserts the cached ordered flag matches the ranges.
func checkOrderedFlag(t *testing.T, l List) {
	t.Helper()
	if l.ordered != isOrdered(l.ranges) {
		t.Fatalf("ordered flag %v, ranges %v say %v", l.ordered, l.ranges, isOrdered(l.ranges))
	}
}

func TestMergeMatchesSeedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5000; trial++ {
		// Half the trials start other at or after l's end — the in-place
		// path, boundary coalescing included — and half anywhere.
		a := FromRanges(messyRanges(rng, uint64(rng.Intn(50)+1), rng.Intn(6)))
		from := uint64(rng.Intn(100) + 1)
		if n := a.NumRanges(); n > 0 && trial%2 == 0 {
			from = a.Ranges()[n-1].Lo + uint64(rng.Intn(int(a.Ranges()[n-1].Span())+2))
		}
		b := FromRanges(messyRanges(rng, from, rng.Intn(6)))
		want := seedMerge(a.Clone(), b)
		got := a.Clone()
		got.Merge(b)
		if !got.Equal(FromRanges(want)) {
			t.Fatalf("trial %d: %s ∪ %s = %s, seed merge gives %v", trial, a, b, got, want)
		}
		checkOrderedFlag(t, got)
	}
}

func TestMergeFoldMatchesSeedMerge(t *testing.T) {
	// Long folds exercise the flag across many in-place appends, the way
	// the reducer folds task outputs in partition order.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var acc, ref List
		cur := uint64(1)
		for step := 0; step < 40; step++ {
			from := cur
			if rng.Intn(8) == 0 {
				from = uint64(rng.Intn(int(cur)) + 1) // occasionally interleave
			}
			part := FromRanges(messyRanges(rng, from, rng.Intn(5)+1))
			ref = FromRanges(seedMerge(ref, part))
			acc.Merge(part)
			if !acc.Equal(ref) {
				t.Fatalf("trial %d step %d: fold %s, seed merge gives %s", trial, step, acc, ref)
			}
			checkOrderedFlag(t, acc)
			for _, r := range part.Ranges() {
				cur = max(cur, r.Hi+1)
			}
		}
	}
}

func TestOrderedFlagTracksAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		var l List
		for _, r := range messyRanges(rng, 1, rng.Intn(12)+1) {
			l.AppendRange(r.Lo, r.Hi)
			checkOrderedFlag(t, l)
		}
		checkOrderedFlag(t, l.Clone())
	}
}

func TestMergeOrderedInPlaceAllocsNothing(t *testing.T) {
	base := FromRange(1, 50)
	base.ranges = append(make([]Range, 0, 64), base.ranges...)
	other := FromRanges([]Range{{60, 70}, {72, 80}})
	want := FromRanges([]Range{{1, 50}, {60, 70}, {72, 80}})
	allocs := testing.AllocsPerRun(100, func() {
		l := base // shares base's spare capacity; base's own ranges are untouched
		l.Merge(other)
		if !l.Equal(want) {
			t.Fatalf("merge = %s, want %s", l, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("wholly-after Merge with spare capacity allocated %.0f times per call, want 0", allocs)
	}
}

func BenchmarkMergeOrderedFold(b *testing.B) {
	// The reducer's shape: 64 task lists, each after the last, folded in
	// task order.
	rng := rand.New(rand.NewSource(7))
	tasks := make([]List, 64)
	cur := uint64(1)
	for i := range tasks {
		for r := 0; r < 100; r++ {
			span := uint64(rng.Intn(20))
			tasks[i].AppendRange(cur, cur+span)
			cur += span + 2 + uint64(rng.Intn(10))
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var acc List
		for _, t := range tasks {
			acc.Merge(t)
		}
	}
}
