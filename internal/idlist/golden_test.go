package idlist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// goldenCorpus is a fixed set of lists covering the shapes the codecs see:
// empty, the Table 3 example, a dense run, every other row, sparse runs,
// large identifiers, and a multiset with duplicates, out-of-order and
// abutting ranges. It is built without math/rand so it can never drift.
func goldenCorpus() []List {
	var corpus []List
	corpus = append(corpus, List{})
	corpus = append(corpus, FromRanges([]Range{{2, 14}, {19, 23}}))
	corpus = append(corpus, FromRange(1, 1<<20))

	var everyOther List
	for id := uint64(2); id <= 20000; id += 2 {
		everyOther.Append(id)
	}
	corpus = append(corpus, everyOther)

	var sparse List
	x, cur := uint64(7), uint64(1)
	for i := 0; i < 2000; i++ {
		x = splitmix(x)
		span := x % 40
		sparse.AppendRange(cur, cur+span)
		cur += span + 2 + (x>>8)%300
	}
	corpus = append(corpus, sparse)

	var large List
	for i := uint64(0); i < 1000; i++ {
		large.Append(1<<40 + i*3)
	}
	corpus = append(corpus, large)

	corpus = append(corpus, FromRanges([]Range{{100, 110}, {105, 120}, {121, 121}, {3, 9}, {50, 50}, {50, 50}}))
	return corpus
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// codecDigest hashes a codec's encodings of the corpus, length-prefixed;
// an encode error contributes a fixed marker (Bitmap rejects duplicates).
func codecDigest(t *testing.T, c Codec, corpus []List) string {
	t.Helper()
	h := sha256.New()
	for _, l := range corpus {
		data, err := c.Encode(l)
		if err != nil {
			h.Write([]byte("error"))
			continue
		}
		h.Write(binary.AppendUvarint(nil, uint64(len(data))))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenDigests were recorded from the codecs before Deflate state was
// pooled; they pin every codec's output bytes.
var goldenDigests = map[string]string{
	"ranges+vb":                       "a4fb04d7c522257125331a83a547638d9c6b711f095cf640fa06f25418cb3e8d",
	"ranges+vb+diff":                  "2bb9d4de3affbe53d0c8e843d82509feca2c19baed3ae0adedaf3082c8adf8ba",
	"ranges+vb+diff+deflate(compact)": "b552da14e27eeed2717d7d701240cea700fc6aa28820fe2fa5bd3b323293c39f",
	"ranges+vb+diff+deflate(fast)":    "d9c3163c98f77f3db0025b282401c4b5399dc6696918b554adf02f6ad3dec65a",
	"vb+diff":                         "61c10c01fb71f0cfb91511640fc7e637a0492e05ef8011bade3781a6854fff65",
	"bitmap":                          "e7e35633a0d47a32ffdfeda44905c5d2b91811ba69ae9bf3e918976666803baf",
}

func TestEncodeGolden(t *testing.T) {
	corpus := goldenCorpus()
	// Two passes: the second runs on pooled, reset compressor state and
	// must produce the same bytes as a freshly built one.
	for pass := 0; pass < 2; pass++ {
		for _, c := range AllCodecs() {
			got := codecDigest(t, c, corpus)
			if want := goldenDigests[c.Name()]; got != want {
				t.Errorf("pass %d: %s encodes the golden corpus to digest %s, want %s", pass, c.Name(), got, want)
			}
		}
	}
}
