// ID-list encodings (§4.5, Table 3). Seabed's default aggregation codec is
// the composition Range + VB + Diff + Deflate(fast); group-by results use
// VB + Diff without ranges because their per-group lists are sparse.
package idlist

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Codec serializes and deserializes identifier lists.
type Codec interface {
	// Name identifies the codec in benchmark output, e.g. "ranges+vb+diff".
	Name() string
	Encode(l List) ([]byte, error)
	Decode(data []byte) (List, error)
}

// Named codecs matching the encoding progression evaluated in Figure 8.
var (
	// RangeVB writes ranges with absolute variable-byte bounds ("Ranges & VB").
	RangeVB Codec = rangeVB{diff: false}
	// RangeVBDiff adds differential encoding of range bounds ("+Diff").
	RangeVBDiff Codec = rangeVB{diff: true}
	// RangeVBDiffDeflateFast adds Deflate optimized for speed ("+Deflate(Fast)").
	RangeVBDiffDeflateFast Codec = newDeflated(rangeVB{diff: true}, flate.BestSpeed, "ranges+vb+diff+deflate(fast)")
	// RangeVBDiffDeflateCompact adds Deflate optimized for ratio ("+Deflate(Compact)").
	RangeVBDiffDeflateCompact Codec = newDeflated(rangeVB{diff: true}, flate.BestCompression, "ranges+vb+diff+deflate(compact)")
	// VBDiff encodes individual identifiers with differential variable-byte
	// encoding and no range encoding; Seabed uses it for group-by results
	// whose sparse lists would bloat under range encoding (§4.5).
	VBDiff Codec = vbDiff{}
	// Bitmap is the dense-bitmap baseline that "performed poorly" (§6.4).
	Bitmap Codec = bitmap{}
)

// Default is the codec Seabed selects for plain aggregation queries (§6.4):
// range encoding, VB, differential encoding, and Deflate optimized for speed.
var Default = RangeVBDiffDeflateFast

// AllCodecs lists every codec in the Figure 8 sweep order.
func AllCodecs() []Codec {
	return []Codec{RangeVB, RangeVBDiff, RangeVBDiffDeflateCompact, RangeVBDiffDeflateFast, VBDiff, Bitmap}
}

type rangeVB struct{ diff bool }

// Name implements Codec.
func (c rangeVB) Name() string {
	if c.diff {
		return "ranges+vb+diff"
	}
	return "ranges+vb"
}

// Encode implements Codec: one (Lo, span) varint pair per range,
// delta-chained from the previous range's Hi in the diff variant.
func (c rangeVB) Encode(l List) ([]byte, error) {
	return c.appendEncode(make([]byte, 0, 16+10*len(l.ranges)), l), nil
}

// appendEncode appends Encode's bytes to buf.
func (c rangeVB) appendEncode(buf []byte, l List) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(l.ranges)))
	var prevHi uint64
	for _, r := range l.ranges {
		if c.diff {
			// Delta from the previous range's Hi. Out-of-order (overlapping)
			// ranges can make the delta negative; encode with zig-zag.
			buf = binary.AppendVarint(buf, int64(r.Lo-prevHi))
			buf = binary.AppendUvarint(buf, r.Hi-r.Lo)
			prevHi = r.Hi
		} else {
			buf = binary.AppendUvarint(buf, r.Lo)
			buf = binary.AppendUvarint(buf, r.Hi-r.Lo)
		}
	}
	return buf
}

// Decode implements Codec, inverting Encode.
func (c rangeVB) Decode(data []byte) (List, error) {
	var l List
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return l, fmt.Errorf("idlist: %s: bad range count", c.Name())
	}
	data = data[k:]
	// Each range takes at least two bytes, which bounds the allocation
	// before an untrusted count can size it.
	if n > uint64(len(data))/2 {
		return List{}, fmt.Errorf("idlist: %s: %d ranges in %d bytes", c.Name(), n, len(data))
	}
	l.ranges = make([]Range, 0, n)
	var prevHi uint64
	for i := uint64(0); i < n; i++ {
		var lo uint64
		if c.diff {
			d, k := binary.Varint(data)
			if k <= 0 {
				return List{}, fmt.Errorf("idlist: %s: truncated lo at range %d", c.Name(), i)
			}
			data = data[k:]
			lo = prevHi + uint64(d)
		} else {
			v, k := binary.Uvarint(data)
			if k <= 0 {
				return List{}, fmt.Errorf("idlist: %s: truncated lo at range %d", c.Name(), i)
			}
			data = data[k:]
			lo = v
		}
		span, k := binary.Uvarint(data)
		if k <= 0 {
			return List{}, fmt.Errorf("idlist: %s: truncated span at range %d", c.Name(), i)
		}
		data = data[k:]
		hi := lo + span
		if hi < lo {
			return List{}, fmt.Errorf("idlist: %s: span overflows at range %d", c.Name(), i)
		}
		l.ranges = append(l.ranges, Range{lo, hi})
		l.n += span + 1
		prevHi = hi
	}
	l.ordered = isOrdered(l.ranges)
	return l, nil
}

type vbDiff struct{}

// Name implements Codec.
func (vbDiff) Name() string { return "vb+diff" }

// Encode implements Codec: one zig-zag delta varint per identifier.
func (vbDiff) Encode(l List) ([]byte, error) {
	buf := make([]byte, 0, 8+int(l.n))
	buf = binary.AppendUvarint(buf, l.n)
	var prev uint64
	for _, r := range l.ranges {
		for id := r.Lo; ; id++ {
			buf = binary.AppendVarint(buf, int64(id-prev))
			prev = id
			if id == r.Hi {
				break
			}
		}
	}
	return buf, nil
}

// Decode implements Codec, inverting Encode.
func (vbDiff) Decode(data []byte) (List, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return List{}, fmt.Errorf("idlist: vb+diff: bad id count")
	}
	data = data[k:]
	if n > uint64(len(data)) { // one byte per identifier at least
		return List{}, fmt.Errorf("idlist: vb+diff: %d ids in %d bytes", n, len(data))
	}
	var l List
	var prev uint64
	for i := uint64(0); i < n; i++ {
		d, k := binary.Varint(data)
		if k <= 0 {
			return List{}, fmt.Errorf("idlist: vb+diff: truncated id %d", i)
		}
		data = data[k:]
		id := prev + uint64(d)
		l.Append(id)
		prev = id
	}
	return l, nil
}

type bitmap struct{}

// Name implements Codec.
func (bitmap) Name() string { return "bitmap" }

// Encode implements Codec: a base identifier plus one bit per position.
func (bitmap) Encode(l List) ([]byte, error) {
	if l.n == 0 {
		return binary.AppendUvarint(nil, 0), nil
	}
	base := l.ranges[0].Lo
	var hi uint64
	for _, r := range l.ranges {
		if r.Lo < base {
			base = r.Lo
		}
		if r.Hi > hi {
			hi = r.Hi
		}
	}
	span := hi - base + 1
	if span > 1<<33 {
		return nil, fmt.Errorf("idlist: bitmap: span %d too large", span)
	}
	words := make([]uint64, (span+63)/64)
	for _, r := range l.ranges {
		for id := r.Lo; ; id++ {
			off := id - base
			if words[off/64]&(1<<(off%64)) != 0 {
				return nil, fmt.Errorf("idlist: bitmap: duplicate id %d (bitmaps have set semantics)", id)
			}
			words[off/64] |= 1 << (off % 64)
			if id == r.Hi {
				break
			}
		}
	}
	buf := make([]byte, 0, 24+8*len(words))
	buf = binary.AppendUvarint(buf, 1) // non-empty marker
	buf = binary.AppendUvarint(buf, base)
	buf = binary.AppendUvarint(buf, uint64(len(words)))
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf, nil
}

// Decode implements Codec, inverting Encode.
func (bitmap) Decode(data []byte) (List, error) {
	marker, k := binary.Uvarint(data)
	if k <= 0 {
		return List{}, fmt.Errorf("idlist: bitmap: bad marker")
	}
	data = data[k:]
	if marker == 0 {
		return List{}, nil
	}
	base, k := binary.Uvarint(data)
	if k <= 0 {
		return List{}, fmt.Errorf("idlist: bitmap: bad base")
	}
	data = data[k:]
	nwords, k := binary.Uvarint(data)
	if k <= 0 {
		return List{}, fmt.Errorf("idlist: bitmap: bad word count")
	}
	data = data[k:]
	if nwords > uint64(len(data))/8 {
		return List{}, fmt.Errorf("idlist: bitmap: truncated words")
	}
	if nwords > 0 && base+nwords*64-1 < base {
		return List{}, fmt.Errorf("idlist: bitmap: identifiers overflow")
	}
	var l List
	for w := uint64(0); w < nwords; w++ {
		word := binary.LittleEndian.Uint64(data[w*8:])
		for word != 0 {
			bit := uint64(trailingZeros(word))
			l.Append(base + w*64 + bit)
			word &= word - 1
		}
	}
	return l, nil
}

func trailingZeros(v uint64) int {
	n := 0
	for v&1 == 0 {
		v >>= 1
		n++
	}
	return n
}

// MaxInflatedBytes bounds the inner encoding a Deflate codec will inflate
// from one list. Encoded lists arrive from untrusted daemons and Deflate
// expands up to about 1000×, so Decode stops and fails past this cap
// rather than buffering a bomb. 64 MiB holds the range encoding of
// upwards of 20 million ranges, far beyond the lists the workloads build.
const MaxInflatedBytes = 64 << 20

// maxPooledBuf caps the scratch buffers kept in the codec pools, so one
// huge list does not pin its memory for the life of the process.
const maxPooledBuf = 1 << 20

// deflated wraps the range codec in Deflate. Compressor and decompressor
// state (about 1 MB and 40 KB) is pooled and Reset per call rather than
// rebuilt; Reset is equivalent to NewWriter, so the bytes are unchanged.
type deflated struct {
	inner     rangeVB
	name      string
	deflaters *sync.Pool // of *deflater at the codec's level
}

type deflater struct {
	w   *flate.Writer
	raw []byte // inner encoding scratch
	out bytes.Buffer
}

// inflater is pooled decompressor state: the flate reader, the source it
// reads, and the buffer the inner encoding inflates into.
type inflater struct {
	src bytes.Reader
	r   io.ReadCloser // also a flate.Resetter
	lim io.LimitedReader
	raw bytes.Buffer
}

var inflaters = sync.Pool{New: func() any {
	f := new(inflater)
	f.r = flate.NewReader(&f.src)
	return f
}}

func newDeflated(inner rangeVB, level int, name string) deflated {
	return deflated{inner: inner, name: name, deflaters: &sync.Pool{New: func() any {
		w, err := flate.NewWriter(nil, level)
		if err != nil {
			panic(fmt.Sprintf("idlist: deflate level %d: %v", level, err))
		}
		return &deflater{w: w}
	}}}
}

// Name implements Codec.
func (c deflated) Name() string { return c.name }

// Encode implements Codec: the inner codec's bytes, DEFLATE-compressed.
func (c deflated) Encode(l List) ([]byte, error) {
	d := c.deflaters.Get().(*deflater)
	defer func() {
		if cap(d.raw) > maxPooledBuf {
			d.raw = nil
		}
		if d.out.Cap() > maxPooledBuf {
			d.out = bytes.Buffer{}
		}
		c.deflaters.Put(d)
	}()
	d.raw = c.inner.appendEncode(d.raw[:0], l)
	d.out.Reset()
	d.w.Reset(&d.out)
	if _, err := d.w.Write(d.raw); err != nil {
		return nil, fmt.Errorf("idlist: deflate: %v", err)
	}
	if err := d.w.Close(); err != nil {
		return nil, fmt.Errorf("idlist: deflate: %v", err)
	}
	return bytes.Clone(d.out.Bytes()), nil
}

// Decode implements Codec, inflating at most MaxInflatedBytes then
// delegating to the inner codec.
func (c deflated) Decode(data []byte) (List, error) {
	return c.decode(data, MaxInflatedBytes)
}

func (c deflated) decode(data []byte, limit int) (List, error) {
	f := inflaters.Get().(*inflater)
	defer func() {
		if f.raw.Cap() > maxPooledBuf {
			f.raw = bytes.Buffer{}
		}
		inflaters.Put(f)
	}()
	f.src.Reset(data)
	if err := f.r.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return List{}, fmt.Errorf("idlist: inflate: %v", err)
	}
	f.raw.Reset()
	f.lim = io.LimitedReader{R: f.r, N: int64(limit) + 1}
	if _, err := f.raw.ReadFrom(&f.lim); err != nil {
		return List{}, fmt.Errorf("idlist: inflate: %v", err)
	}
	if f.raw.Len() > limit {
		return List{}, fmt.Errorf("idlist: inflate: output exceeds %d bytes", limit)
	}
	return c.inner.Decode(f.raw.Bytes())
}
