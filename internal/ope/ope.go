// Package ope implements the practical order-revealing encryption scheme of
// Chenette, Lewi, Weis and Wu (FSE 2016), which Seabed uses for dimensions
// with range predicates (§4.2, Appendix A.3).
//
// For an n-bit message m with bits b1…bn (most significant first), the
// ciphertext is (u1, …, un) with
//
//	u_i = (F(k, (i, b1…b_{i−1} ‖ 0^{n−i})) + b_i) mod 3
//
// where F is a PRF. Compare finds the smallest index where two ciphertexts
// differ; if u_i = (u'_i + 1) mod 3 the first plaintext is larger. The
// scheme's leakage is precisely quantified: for any pair of ciphertexts it
// reveals the order and the index of the most significant bit where the
// plaintexts differ (inddiff), and nothing more. Unlike the mutable OPE
// used by CryptDB it is stateless and handles dynamic data, which is why
// Seabed adopts it (§4.2).
//
// The server-side comparison runs at word width: when both ciphertexts are
// CiphertextSize bytes long, CompareLeak loads them eight bytes at a time,
// XORs the words, and locates the first differing byte of the first
// non-zero word with a trailing-zero count (little-endian loads keep byte
// order and bit order aligned). The mod-3 rule then runs at that one byte.
// Any other length takes the byte-at-a-time loop. Both paths return the
// identical (cmp, inddiff) on every input, so the scheme's leakage is
// unchanged: the result still depends only on the position and value of the
// first differing byte.
package ope

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// KeySize is the secret key length in bytes.
const KeySize = 16

// Bits is the plaintext width in bits.
const Bits = 64

// CiphertextSize is the encoded ciphertext length: one byte per plaintext
// bit, each holding an element of Z_3.
const CiphertextSize = Bits

// Key encrypts 64-bit values under the ORE scheme. It is safe for concurrent
// use: every operation derives fresh AES blocks without shared state.
type Key struct {
	block cipher.Block
}

// NewKey returns a Key for the given 16-byte secret.
func NewKey(secret []byte) (*Key, error) {
	if len(secret) != KeySize {
		return nil, fmt.Errorf("ope: secret must be %d bytes, got %d", KeySize, len(secret))
	}
	block, err := aes.NewCipher(secret)
	if err != nil {
		return nil, fmt.Errorf("ope: %v", err)
	}
	return &Key{block: block}, nil
}

// MustNewKey is like NewKey but panics on error.
func MustNewKey(secret []byte) *Key {
	k, err := NewKey(secret)
	if err != nil {
		panic(err)
	}
	return k
}

// Encrypt produces the ORE ciphertext of v: CiphertextSize bytes, each the
// mod-3 encoding of one plaintext bit position.
func (k *Key) Encrypt(v uint64) []byte {
	ct := make([]byte, CiphertextSize)
	var in, out [aes.BlockSize]byte
	for i := 0; i < Bits; i++ {
		// prefix = top i bits of v, remaining bits zeroed.
		var prefix uint64
		if i > 0 {
			prefix = v &^ (^uint64(0) >> uint(i))
		}
		in[0] = byte(i + 1) // bit index, 1-based as in the paper
		binary.BigEndian.PutUint64(in[8:], prefix)
		k.block.Encrypt(out[:], in[:])
		f := binary.BigEndian.Uint64(out[:8]) % 3
		bit := (v >> uint(Bits-1-i)) & 1
		ct[i] = byte((f + bit) % 3)
	}
	return ct
}

// Compare returns the order of the plaintexts underlying two ciphertexts:
// -1 if ct1 < ct2, 0 if equal, +1 if ct1 > ct2. This is the keyless
// comparison the untrusted server evaluates.
func Compare(ct1, ct2 []byte) int {
	cmp, _ := CompareLeak(ct1, ct2)
	return cmp
}

// CompareLeak is Compare but also returns the scheme's documented leakage:
// the 1-based index of the most significant bit where the plaintexts differ
// (0 when equal).
func CompareLeak(ct1, ct2 []byte) (cmp, inddiff int) {
	if len(ct1) == CiphertextSize && len(ct2) == CiphertextSize {
		return compareWords((*[CiphertextSize]byte)(ct1), (*[CiphertextSize]byte)(ct2))
	}
	return compareBytes(ct1, ct2)
}

// compareWords is CompareLeak for two full-size ciphertexts, eight bytes
// per step: the first non-zero XOR word holds the first differing byte at
// its lowest set byte.
func compareWords(a, b *[CiphertextSize]byte) (cmp, inddiff int) {
	for off := 0; off < CiphertextSize; off += 8 {
		x := binary.LittleEndian.Uint64(a[off:]) ^ binary.LittleEndian.Uint64(b[off:])
		if x != 0 {
			i := off + bits.TrailingZeros64(x)>>3
			return orderAt(a[i], b[i]), i + 1
		}
	}
	return 0, 0
}

// compareBytes is CompareLeak's byte-at-a-time path for ciphertexts of any
// length: it scans the common prefix and treats a strict prefix as equal.
func compareBytes(ct1, ct2 []byte) (cmp, inddiff int) {
	n := min(len(ct1), len(ct2))
	for i := 0; i < n; i++ {
		if ct1[i] != ct2[i] {
			return orderAt(ct1[i], ct2[i]), i + 1
		}
	}
	return 0, 0
}

// orderAt applies the scheme's mod-3 rule at the first differing position:
// u = (u' + 1) mod 3 means the first plaintext is larger. The arithmetic is
// on bytes, so an out-of-range (hostile) byte wraps exactly as it always has.
func orderAt(u, v byte) int {
	if u == (v+1)%3 {
		return 1
	}
	return -1
}

// Less reports whether ct1's plaintext is strictly smaller than ct2's.
func Less(ct1, ct2 []byte) bool { return Compare(ct1, ct2) < 0 }

// Leq reports whether ct1's plaintext is ≤ ct2's.
func Leq(ct1, ct2 []byte) bool { return Compare(ct1, ct2) <= 0 }
