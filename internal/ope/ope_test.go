package ope

import (
	"bytes"
	"math/bits"
	"testing"
	"testing/quick"
)

var testKey = MustNewKey([]byte("0123456789abcdef"))

func cmpU64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func TestCompareMatchesPlaintextOrder(t *testing.T) {
	f := func(a, b uint64) bool {
		ca, cb := testKey.Encrypt(a), testKey.Encrypt(b)
		return Compare(ca, cb) == cmpU64(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareAdjacentValues(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 127, 128, 1 << 32, ^uint64(0) - 1} {
		ca, cb := testKey.Encrypt(v), testKey.Encrypt(v+1)
		if Compare(ca, cb) != -1 {
			t.Fatalf("Compare(Enc(%d), Enc(%d)) != -1", v, v+1)
		}
		if Compare(cb, ca) != 1 {
			t.Fatalf("Compare(Enc(%d), Enc(%d)) != 1", v+1, v)
		}
	}
}

func TestDeterministicEquality(t *testing.T) {
	a := testKey.Encrypt(12345)
	b := testKey.Encrypt(12345)
	if !bytes.Equal(a, b) {
		t.Fatal("ORE is deterministic; equal plaintexts must produce equal ciphertexts")
	}
	if Compare(a, b) != 0 {
		t.Fatal("Compare of equal ciphertexts must be 0")
	}
}

func TestLeakageIsFirstDifferingBit(t *testing.T) {
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		_, inddiff := CompareLeak(testKey.Encrypt(a), testKey.Encrypt(b))
		want := bits.LeadingZeros64(a^b) + 1 // 1-based index of first differing bit
		return inddiff == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLeqLess(t *testing.T) {
	c5, c9 := testKey.Encrypt(5), testKey.Encrypt(9)
	if !Less(c5, c9) || Less(c9, c5) || Less(c5, c5) {
		t.Fatal("Less misbehaves")
	}
	if !Leq(c5, c9) || !Leq(c5, c5) || Leq(c9, c5) {
		t.Fatal("Leq misbehaves")
	}
}

func TestCiphertextSize(t *testing.T) {
	if n := len(testKey.Encrypt(7)); n != CiphertextSize {
		t.Fatalf("ciphertext is %d bytes, want %d", n, CiphertextSize)
	}
}

func TestTransitivity(t *testing.T) {
	// Sortedness check across a spread of values.
	values := []uint64{0, 1, 5, 63, 64, 1000, 1 << 20, 1 << 40, ^uint64(0)}
	cts := make([][]byte, len(values))
	for i, v := range values {
		cts[i] = testKey.Encrypt(v)
	}
	for i := range values {
		for j := range values {
			if Compare(cts[i], cts[j]) != cmpU64(values[i], values[j]) {
				t.Fatalf("Compare(%d, %d) inconsistent", values[i], values[j])
			}
		}
	}
}

func TestDifferentKeysProduceDifferentCiphertexts(t *testing.T) {
	// Sanity check that the key matters: equal plaintexts under different
	// keys must not compare equal.
	other := MustNewKey([]byte("fedcba9876543210"))
	equal := 0
	for v := uint64(0); v < 64; v++ {
		if Compare(testKey.Encrypt(v), other.Encrypt(v)) == 0 {
			equal++
		}
	}
	if equal > 0 {
		t.Fatalf("%d/64 cross-key ciphertext pairs compared equal; key appears unused", equal)
	}
}

func TestNewKeyRejectsBadSecret(t *testing.T) {
	if _, err := NewKey([]byte("short")); err == nil {
		t.Fatal("want error for short secret")
	}
}

// referenceCompareLeak is the byte-at-a-time comparison CompareLeak used
// before it went word-wide, kept verbatim as the oracle: (cmp, inddiff) is
// the scheme's documented leakage, so the fast path must agree with it on
// every input, well-formed or not.
func referenceCompareLeak(ct1, ct2 []byte) (cmp, inddiff int) {
	n := len(ct1)
	if len(ct2) < n {
		n = len(ct2)
	}
	for i := 0; i < n; i++ {
		if ct1[i] == ct2[i] {
			continue
		}
		if ct1[i] == (ct2[i]+1)%3 {
			return 1, i + 1
		}
		return -1, i + 1
	}
	return 0, 0
}

// checkAgainstReference asserts CompareLeak matches the reference on one
// ordered pair.
func checkAgainstReference(t *testing.T, a, b []byte) {
	t.Helper()
	gotCmp, gotInd := CompareLeak(a, b)
	wantCmp, wantInd := referenceCompareLeak(a, b)
	if gotCmp != wantCmp || gotInd != wantInd {
		t.Fatalf("CompareLeak(%x, %x) = (%d, %d), reference (%d, %d)", a, b, gotCmp, gotInd, wantCmp, wantInd)
	}
}

// TestCompareLeakMatchesReferenceOnCiphertexts runs every ordered pair of
// real ciphertexts of 0…400, 1<<63 and 2^64−1 under two keys through both
// comparisons: small values share 55+ leading bytes, so the first
// difference lands in every word position the filter workloads hit, and the
// extremes put it in the first byte.
func TestCompareLeakMatchesReferenceOnCiphertexts(t *testing.T) {
	values := make([]uint64, 0, 403)
	for v := uint64(0); v <= 400; v++ {
		values = append(values, v)
	}
	values = append(values, 1<<63, ^uint64(0))
	for _, key := range []*Key{testKey, MustNewKey([]byte("fedcba9876543210"))} {
		cts := make([][]byte, len(values))
		for i, v := range values {
			cts[i] = key.Encrypt(v)
		}
		for i := range cts {
			for j := range cts {
				checkAgainstReference(t, cts[i], cts[j])
				cmp, ind := CompareLeak(cts[i], cts[j])
				if cmp != cmpU64(values[i], values[j]) {
					t.Fatalf("Compare(Enc(%d), Enc(%d)) = %d", values[i], values[j], cmp)
				}
				if x := values[i] ^ values[j]; x != 0 && ind != bits.LeadingZeros64(x)+1 {
					t.Fatalf("inddiff(Enc(%d), Enc(%d)) = %d", values[i], values[j], ind)
				}
			}
		}
	}
}

// TestCompareLeakMatchesReferenceOnOddInputs covers what only a hostile
// plan frame or upload carries: lengths around CiphertextSize, bytes outside
// Z_3 (where the mod-3 rule's byte arithmetic wraps), and a difference in
// each byte position of a full-size pair.
func TestCompareLeakMatchesReferenceOnOddInputs(t *testing.T) {
	ct := testKey.Encrypt(30)
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 128} {
		short := make([]byte, n)
		copy(short, ct)
		checkAgainstReference(t, short, ct)
		checkAgainstReference(t, ct, short)
	}
	for i := 0; i < CiphertextSize; i++ {
		for _, v := range []byte{0, 1, 2, 3, 0x7f, 0xfe, 0xff} {
			alt := bytes.Clone(ct)
			alt[i] = v
			checkAgainstReference(t, alt, ct)
			checkAgainstReference(t, ct, alt)
		}
	}
}

// FuzzCompareLeak asserts the word-wide comparison and the byte-at-a-time
// reference return the same (cmp, inddiff) for arbitrary byte strings of
// any length. Seeds live in testdata/fuzz/FuzzCompareLeak.
func FuzzCompareLeak(f *testing.F) {
	ct5, ct30 := testKey.Encrypt(5), testKey.Encrypt(30)
	f.Add(ct5, ct30)
	f.Add(ct30, ct30)
	f.Add([]byte{}, ct30)
	f.Add(ct30[:63], ct30)
	f.Add(append(bytes.Clone(ct30), 2), ct5)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkAgainstReference(t, a, b)
		checkAgainstReference(t, b, a)
	})
}

func BenchmarkEncrypt(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		testKey.Encrypt(uint64(i))
	}
}

func BenchmarkCompare(b *testing.B) {
	// Random pairs: comparison scans until the first differing bit.
	cts := make([][]byte, 256)
	for i := range cts {
		cts[i] = testKey.Encrypt(uint64(i) * 2654435761)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compare(cts[i%256], cts[(i+1)%256])
	}
}

// BenchmarkCompareSmallValues is the range-filter shape: ciphertexts of
// values below 365 against Enc(30), where 55+ leading bytes are equal.
func BenchmarkCompareSmallValues(b *testing.B) {
	cts := make([][]byte, 1024)
	for i := range cts {
		cts[i] = testKey.Encrypt(uint64(i) % 365)
	}
	c := testKey.Encrypt(30)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compare(cts[i%1024], c)
	}
}
