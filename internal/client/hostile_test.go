package client

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"testing"

	"seabed/internal/engine"
	"seabed/internal/idlist"
	"seabed/internal/sqlparse"
	"seabed/internal/translate"
)

// TestDecryptRejectsHostileIDLists feeds the identifier-list bytes an
// untrusted daemon controls through Decrypt: counts far beyond the bytes
// that follow, bitmap word counts whose byte size overflows, and the
// reserved identifier 0. Each must surface as an error, never a panic in
// the trusted proxy.
func TestDecryptRejectsHostileIDLists(t *testing.T) {
	p := salesFixture(t)
	q, err := sqlparse.Parse("SELECT SUM(revenue) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(q, p, p.ring, translate.Seabed, translate.Options{Workers: p.cluster.Workers()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.cluster.Run(context.Background(), tr.Server)
	if err != nil {
		t.Fatal(err)
	}
	agg := -1
	for i, av := range res.Groups[0].Aggs {
		if av.Kind == engine.AggAsheSum {
			agg = i
		}
	}
	if agg < 0 {
		t.Fatal("plan has no ASHE aggregate")
	}

	hugeCount := binary.AppendUvarint(nil, 1<<60) // 9 bytes, no ranges behind it
	bitmapOverflow := binary.AppendUvarint(nil, 1)
	bitmapOverflow = binary.AppendUvarint(bitmapOverflow, 1)
	bitmapOverflow = binary.AppendUvarint(bitmapOverflow, 1<<61) // nwords*8 wraps to 0
	idZero, err := idlist.RangeVBDiff.Encode(idlist.FromRange(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		codec idlist.Codec
		data  []byte
	}{
		{"ranges+vb/huge-count", idlist.RangeVB, hugeCount},
		{"ranges+vb+diff/huge-count", idlist.RangeVBDiff, hugeCount},
		{"default/huge-count", idlist.Default, deflate(t, hugeCount)},
		{"vb+diff/huge-count", idlist.VBDiff, hugeCount},
		{"bitmap/word-count-overflow", idlist.Bitmap, bitmapOverflow},
		{"ranges+vb+diff/id-zero", idlist.RangeVBDiff, idZero},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hostile := *res
			hostile.Groups = []engine.Group{res.Groups[0]}
			hostile.Groups[0].Aggs = append([]engine.AggValue(nil), res.Groups[0].Aggs...)
			hostile.Groups[0].Aggs[agg].Ashe.Encoded = tc.data
			htr := *tr
			srv := *tr.Server
			srv.Codec = tc.codec
			htr.Server = &srv
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decrypt panicked: %v", r)
				}
			}()
			if _, err := Decrypt(&htr, &hostile, p.ring); err == nil {
				t.Fatal("Decrypt accepted a hostile identifier list")
			}
		})
	}
}

// deflate compresses raw the way the Deflate codecs do.
func deflate(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
