package idlist

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// thousandRanges is a 1k-range list with small gaps, the shape of a
// filtered aggregation's identifier list.
func thousandRanges() List {
	var l List
	cur := uint64(1)
	for i := 0; i < 1000; i++ {
		l.AppendRange(cur, cur+uint64(i%7))
		cur += uint64(i%7) + 2 + uint64(i%5)
	}
	return l
}

func TestDefaultCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	l := thousandRanges()
	roundTrip := func() {
		data, err := Default.Encode(l)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Default.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRanges() != l.NumRanges() {
			t.Fatalf("round trip: %d ranges, want %d", got.NumRanges(), l.NumRanges())
		}
	}
	roundTrip() // warm the pools
	// Inner encoding, compressed copy, decoded ranges: a small constant,
	// however many lists went before.
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs > 4 {
		t.Errorf("Default Encode+Decode of a 1k-range list: %.0f allocs, want <= 4", allocs)
	}
	// Compressor state is about 1 MB and decompressor state about 40 KB;
	// the per-call bytes must stay below either, so neither is rebuilt.
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall > 32<<10 {
		t.Errorf("Default Encode+Decode of a 1k-range list allocates %d bytes per call, want <= 32 KiB", perCall)
	}
}

func TestConcurrentEncodeDecode(t *testing.T) {
	// Pooled Deflate state shared by goroutines must give each call the
	// bytes a serial call gives.
	rng := rand.New(rand.NewSource(13))
	lists := make([]List, 16)
	for i := range lists {
		lists[i] = randomList(rng, rng.Intn(400)+1)
	}
	codecs := []Codec{RangeVBDiffDeflateFast, RangeVBDiffDeflateCompact}
	want := make([][][]byte, len(codecs))
	for ci, c := range codecs {
		for _, l := range lists {
			data, err := c.Encode(l)
			if err != nil {
				t.Fatal(err)
			}
			want[ci] = append(want[ci], data)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				ci, li := (g+iter)%len(codecs), (g*7+iter)%len(lists)
				c := codecs[ci]
				data, err := c.Encode(lists[li])
				if err != nil || !bytes.Equal(data, want[ci][li]) {
					errs <- c.Name() + ": concurrent encode differs from serial"
					return
				}
				got, err := c.Decode(data)
				if err != nil || !got.Equal(lists[li]) {
					errs <- c.Name() + ": concurrent decode differs"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestInflateBomb(t *testing.T) {
	// 4 MiB of zeros deflates to a few KiB; with a 1 MiB cap Decode must
	// stop and fail rather than buffer the rest.
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.CopyN(w, zeroReader{}, 4<<20); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	bomb := buf.Bytes()
	if len(bomb) > 16<<10 {
		t.Fatalf("bomb is %d bytes; expected a high ratio", len(bomb))
	}
	c := RangeVBDiffDeflateFast.(deflated)
	if _, err := c.decode(bomb, 1<<20); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("decode of a 4 MiB bomb under a 1 MiB cap: err = %v", err)
	}
	// Under a cap it fits, the same bytes decode (zeros are an empty list).
	if l, err := c.decode(bomb, 4<<20); err != nil || !l.Empty() {
		t.Fatalf("decode within the cap: %v, %v", l, err)
	}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

func TestDecodeRejectsHostileCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<60)
	bitmapWrap := binary.AppendUvarint(nil, 1)
	bitmapWrap = binary.AppendUvarint(bitmapWrap, 5)
	bitmapWrap = binary.AppendUvarint(bitmapWrap, 1<<61)
	bitmapHigh := binary.AppendUvarint(nil, 1)
	bitmapHigh = binary.AppendUvarint(bitmapHigh, ^uint64(0)-10)
	bitmapHigh = binary.AppendUvarint(bitmapHigh, 1)
	bitmapHigh = binary.LittleEndian.AppendUint64(bitmapHigh, 1<<20|1)
	spanWrap := binary.AppendUvarint(nil, 1)
	spanWrap = binary.AppendUvarint(spanWrap, 10)
	spanWrap = binary.AppendUvarint(spanWrap, ^uint64(0))
	cases := []struct {
		name  string
		codec Codec
		data  []byte
	}{
		{"ranges+vb count", RangeVB, huge},
		{"ranges+vb+diff count", RangeVBDiff, huge},
		{"vb+diff count", VBDiff, huge},
		{"bitmap word count", Bitmap, bitmapWrap},
		{"bitmap id overflow", Bitmap, bitmapHigh},
		{"ranges+vb span overflow", RangeVB, spanWrap},
	}
	for _, tc := range cases {
		if _, err := tc.codec.Decode(tc.data); err == nil {
			t.Errorf("%s: hostile bytes decoded without error", tc.name)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to every codec: Decode must never
// panic, and whatever it accepts must survive Encode then Decode unchanged.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	for _, c := range AllCodecs() {
		for _, l := range []List{{}, FromRange(1, 9), randomList(rng, 5)} {
			if data, err := c.Encode(l); err == nil {
				f.Add(data)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range AllCodecs() {
			l, err := c.Decode(data)
			if err != nil {
				continue
			}
			re, err := c.Encode(l)
			if err != nil {
				t.Fatalf("%s: decoded %s but cannot re-encode it: %v", c.Name(), l, err)
			}
			again, err := c.Decode(re)
			if err != nil {
				t.Fatalf("%s: re-encoded list does not decode: %v", c.Name(), err)
			}
			if !again.Equal(l) {
				t.Fatalf("%s: %s re-decodes as %s", c.Name(), l, again)
			}
		}
	})
}

func BenchmarkDecodeDefaultSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	data, err := Default.Encode(randomList(rng, 10000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Default.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
