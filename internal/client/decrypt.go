package client

import (
	"fmt"
	"math"
	"math/big"
	"sort"
	"time"

	"seabed/internal/ashe"
	"seabed/internal/det"
	"seabed/internal/engine"
	"seabed/internal/idlist"
	"seabed/internal/store"
	"seabed/internal/translate"
)

// ValueKind tags a result value.
type ValueKind int

const (
	// Int values come from sums, counts and min/max.
	Int ValueKind = iota
	// Float values come from averages, variances and deviations.
	Float
	// Str values come from string group keys and scans.
	Str
)

// Value is one plaintext result cell.
type Value struct {
	Name string
	Kind ValueKind
	I64  int64
	F64  float64
	Str  string
}

// Display renders the value for humans.
func (v Value) Display() string {
	switch v.Kind {
	case Float:
		return fmt.Sprintf("%.4f", v.F64)
	case Str:
		return v.Str
	}
	return fmt.Sprintf("%d", v.I64)
}

// Row is one decrypted result row.
type Row struct {
	// Key is the group key (nil for ungrouped aggregates and scans).
	Key *Value
	// Values holds the query's output columns.
	Values []Value
}

// Result is a fully decrypted query result with its cost breakdown.
type Result struct {
	Rows []Row
	// ClientTime is the measured decryption + post-processing time (§4.6).
	ClientTime time.Duration
	// PRFEvals counts the AES operations the decryption performed, the
	// statistic §6.6 reports.
	PRFEvals uint64
	// Metrics echoes the server-side metrics.
	Metrics engine.Metrics
}

// decrypter caches derived keys across rows.
type decrypter struct {
	ring     *KeyRing
	asheKeys map[string]*ashe.Key
	detKeys  map[string]*det.Key
	prfEvals uint64
	codec    idlist.Codec
}

// newDecrypter builds a decrypter over the given key ring and identifier-
// list codec (nil falls back to idlist.Default). Shared by the materialized
// path (Decrypt) and the streaming path (stream.go).
func newDecrypter(ring *KeyRing, codec idlist.Codec) *decrypter {
	if codec == nil {
		codec = idlist.Default
	}
	return &decrypter{
		ring:     ring,
		asheKeys: make(map[string]*ashe.Key),
		detKeys:  make(map[string]*det.Key),
		codec:    codec,
	}
}

func (d *decrypter) ashe(col string) *ashe.Key {
	k := d.asheKeys[col]
	if k == nil {
		k = d.ring.Ashe(col)
		d.asheKeys[col] = k
	}
	return k
}

func (d *decrypter) det(col string) *det.Key {
	k := d.detKeys[col]
	if k == nil {
		k = d.ring.Det(col)
		d.detKeys[col] = k
	}
	return k
}

// Decrypt executes the client plan over a server result (§4.6). The
// identifier lists arrive codec-encoded; decoding them is part of the
// measured client time, exactly as in the paper's cost breakdown.
func Decrypt(tr *translate.Translation, res *engine.Result, ring *KeyRing) (*Result, error) {
	start := time.Now()
	d := newDecrypter(ring, tr.Server.Codec)
	out := &Result{Metrics: res.Metrics}

	if len(tr.Client.ScanCols) > 0 {
		if err := d.decryptScan(tr, res, out); err != nil {
			return nil, err
		}
		out.ClientTime = time.Since(start)
		out.PRFEvals = d.prfEvals
		return out, nil
	}

	groups := res.Groups
	if tr.Client.Inflated {
		merged, err := d.deflateGroups(tr, groups)
		if err != nil {
			return nil, err
		}
		groups = merged
	}
	for _, g := range groups {
		row := Row{}
		if tr.Client.GroupKey != nil {
			kv, err := d.groupKey(tr.Client.GroupKey, &g)
			if err != nil {
				return nil, err
			}
			row.Key = &kv
		}
		for _, o := range tr.Client.Outputs {
			v, err := d.output(tr, &o, &g, row.Key)
			if err != nil {
				return nil, err
			}
			row.Values = append(row.Values, v)
		}
		out.Rows = append(out.Rows, row)
	}
	sortRows(out.Rows)
	out.ClientTime = time.Since(start)
	out.PRFEvals = d.prfEvals
	return out, nil
}

// asheOf reconstructs an ASHE ciphertext from a server aggregate, decoding
// the wire-encoded identifier list.
func (d *decrypter) asheOf(av *engine.AggValue) (ashe.Ciphertext, error) {
	ids, err := d.codec.Decode(av.Ashe.Encoded)
	if err != nil {
		return ashe.Ciphertext{}, fmt.Errorf("client: decode id list: %v", err)
	}
	// The list comes from an untrusted daemon; identifier 0 is reserved
	// and would panic in ashe.Decrypt.
	for _, r := range ids.Ranges() {
		if r.Lo == 0 {
			return ashe.Ciphertext{}, fmt.Errorf("client: id list holds reserved identifier 0")
		}
	}
	return ashe.Ciphertext{Body: av.Ashe.Body, IDs: ids}, nil
}

// output evaluates one client-plan output for a group.
func (d *decrypter) output(tr *translate.Translation, o *translate.Output, g *engine.Group, key *Value) (Value, error) {
	switch o.Kind {
	case translate.OutGroupKey:
		if key == nil {
			return Value{}, fmt.Errorf("client: group-key output without GROUP BY")
		}
		kv := *key
		kv.Name = o.Name
		return kv, nil
	case translate.OutPlain:
		av := g.Aggs[o.Agg]
		return Value{Name: o.Name, Kind: Int, I64: int64(av.U64)}, nil
	case translate.OutAsheSum:
		av := g.Aggs[o.Agg]
		ct, err := d.asheOf(&av)
		if err != nil {
			return Value{}, err
		}
		d.prfEvals += ashe.PRFEvalsToDecrypt(ct)
		return Value{Name: o.Name, Kind: Int, I64: int64(d.ashe(o.SourceCol).Decrypt(ct))}, nil
	case translate.OutPailSum:
		sk := d.ring.PaillierSK()
		if sk == nil {
			return Value{}, fmt.Errorf("client: no Paillier key for decryption")
		}
		return Value{Name: o.Name, Kind: Int, I64: int64(sk.DecryptU64(g.Aggs[o.Agg].Pail))}, nil
	case translate.OutAvg:
		sum, err := d.output(tr, o.AuxSum, g, key)
		if err != nil {
			return Value{}, err
		}
		cnt, err := d.output(tr, o.AuxCount, g, key)
		if err != nil {
			return Value{}, err
		}
		if cnt.I64 == 0 {
			return Value{Name: o.Name, Kind: Float, F64: 0}, nil
		}
		return Value{Name: o.Name, Kind: Float, F64: float64(sum.I64) / float64(cnt.I64)}, nil
	case translate.OutVar, translate.OutStddev:
		sum, err := d.output(tr, o.AuxSum, g, key)
		if err != nil {
			return Value{}, err
		}
		sq, err := d.output(tr, o.AuxSq, g, key)
		if err != nil {
			return Value{}, err
		}
		cnt, err := d.output(tr, o.AuxCount, g, key)
		if err != nil {
			return Value{}, err
		}
		if cnt.I64 == 0 {
			return Value{Name: o.Name, Kind: Float, F64: 0}, nil
		}
		n := float64(cnt.I64)
		mean := float64(sum.I64) / n
		v := float64(sq.I64)/n - mean*mean
		if v < 0 {
			v = 0 // floating-point guard
		}
		if o.Kind == translate.OutStddev {
			v = math.Sqrt(v)
		}
		return Value{Name: o.Name, Kind: Float, F64: v}, nil
	case translate.OutMinMax:
		av := g.Aggs[o.Agg]
		if len(av.CompanionBytes) > 0 {
			sk := d.ring.PaillierSK()
			if sk == nil {
				return Value{}, fmt.Errorf("client: no Paillier key for min/max companion")
			}
			return Value{Name: o.Name, Kind: Int, I64: int64(sk.DecryptU64(new(big.Int).SetBytes(av.CompanionBytes)))}, nil
		}
		if av.ArgID == 0 {
			return Value{Name: o.Name, Kind: Int, I64: 0}, nil // empty selection
		}
		d.prfEvals += 2
		return Value{Name: o.Name, Kind: Int, I64: int64(d.ashe(o.SourceCol).DecryptBody(av.U64, av.ArgID))}, nil
	}
	return Value{}, fmt.Errorf("client: unknown output kind %d", o.Kind)
}

// groupKey decrypts a group's key.
func (d *decrypter) groupKey(gk *translate.GroupKeyPlan, g *engine.Group) (Value, error) {
	name := gk.SourceCol
	if !gk.Det {
		switch g.KeyKind {
		case store.U64:
			return Value{Name: name, Kind: Int, I64: int64(g.KeyU64)}, nil
		case store.Str:
			return Value{Name: name, Kind: Str, Str: g.KeyStr}, nil
		default:
			return Value{Name: name, Kind: Str, Str: string(g.KeyBytes)}, nil
		}
	}
	keyName := gk.KeyName
	if keyName == "" {
		keyName = gk.SourceCol
	}
	dk := d.det(keyName)
	if gk.StrValues {
		s, err := dk.DecryptString(g.KeyBytes)
		if err != nil {
			return Value{}, fmt.Errorf("client: decrypt group key: %v", err)
		}
		return Value{Name: name, Kind: Str, Str: s}, nil
	}
	id, err := dk.DecryptU64(g.KeyBytes)
	if err != nil {
		return Value{}, fmt.Errorf("client: decrypt group key: %v", err)
	}
	if len(gk.Dict) > 0 {
		if id >= uint64(len(gk.Dict)) {
			return Value{}, fmt.Errorf("client: group key id %d outside dictionary", id)
		}
		return Value{Name: name, Kind: Str, Str: gk.Dict[id]}, nil
	}
	return Value{Name: name, Kind: Int, I64: int64(id)}, nil
}

// deflateGroups merges suffix-inflated groups back together (§4.5: "the
// client has to perform the remaining aggregations").
func (d *decrypter) deflateGroups(tr *translate.Translation, groups []engine.Group) ([]engine.Group, error) {
	type slot struct {
		g   engine.Group
		ids []idlist.List // decoded ASHE lists per agg
	}
	merged := map[string]*slot{}
	var order []string
	for _, g := range groups {
		key := fmt.Sprintf("%d|%s|%s", g.KeyU64, g.KeyBytes, g.KeyStr)
		s := merged[key]
		if s == nil {
			ng := g
			ng.Suffix = -1
			ng.Aggs = append([]engine.AggValue(nil), g.Aggs...)
			s = &slot{g: ng, ids: make([]idlist.List, len(g.Aggs))}
			for i, av := range g.Aggs {
				if av.Kind == engine.AggAsheSum {
					ct, err := d.asheOf(&av)
					if err != nil {
						return nil, err
					}
					s.ids[i] = ct.IDs
				}
				if av.Kind == engine.AggPaillierSum {
					s.g.Aggs[i].Pail = new(big.Int).Set(av.Pail)
				}
			}
			merged[key] = s
			order = append(order, key)
			continue
		}
		for i, av := range g.Aggs {
			acc := &s.g.Aggs[i]
			switch av.Kind {
			case engine.AggCount, engine.AggPlainSum, engine.AggPlainSumSq:
				acc.U64 += av.U64
			case engine.AggAsheSum:
				ct, err := d.asheOf(&av)
				if err != nil {
					return nil, err
				}
				acc.Ashe.Body += ct.Body
				s.ids[i].Merge(ct.IDs)
			case engine.AggPaillierSum:
				pk := tr.Server.Aggs[i].PK
				pk.AddInto(acc.Pail, av.Pail)
			case engine.AggPlainMin:
				if av.U64 < acc.U64 {
					acc.U64 = av.U64
				}
			case engine.AggPlainMax:
				if av.U64 > acc.U64 {
					acc.U64 = av.U64
				}
			}
		}
		s.g.Rows += g.Rows
	}
	out := make([]engine.Group, 0, len(merged))
	for _, key := range order {
		s := merged[key]
		// Re-encode merged lists so downstream decryption is uniform.
		for i := range s.g.Aggs {
			if s.g.Aggs[i].Kind == engine.AggAsheSum {
				enc, err := d.codec.Encode(s.ids[i])
				if err != nil {
					return nil, err
				}
				s.g.Aggs[i].Ashe.Encoded = enc
			}
		}
		out = append(out, s.g)
	}
	return out, nil
}

// decryptScan processes scan-mode results.
func (d *decrypter) decryptScan(tr *translate.Translation, res *engine.Result, out *Result) error {
	cols := tr.Client.ScanCols
	for i := range res.Scan {
		row, err := d.scanRow(cols, &res.Scan[i])
		if err != nil {
			return err
		}
		out.Rows = append(out.Rows, row)
	}
	return nil
}

// scanRow decrypts one scan row. It is the unit of work the streaming path
// (stream.go) applies per row as chunks arrive, and decryptScan's body for
// materialized results. The row's projection width is validated against the
// plan before any cell is touched: the wire decoder only checks a row's
// internal consistency, and an untrusted server must not be able to crash
// the client with a short row.
func (d *decrypter) scanRow(cols []translate.ScanCol, sr *engine.ScanRow) (Row, error) {
	if len(sr.U64s) < len(cols) {
		return Row{}, fmt.Errorf("client: scan row %d carries %d columns, plan projects %d (malformed or hostile result)",
			sr.ID, len(sr.U64s), len(cols))
	}
	row := Row{}
	for i, sc := range cols {
		switch {
		case sc.Pail:
			sk := d.ring.PaillierSK()
			if sk == nil {
				return Row{}, fmt.Errorf("client: no Paillier key for scan decryption")
			}
			v := sk.DecryptU64(new(big.Int).SetBytes(sr.Bytes[i]))
			row.Values = append(row.Values, Value{Name: sc.Name, Kind: Int, I64: int64(v)})
		case sc.Ashe:
			d.prfEvals += 2
			v := d.ashe(sc.SourceCol).DecryptBody(sr.U64s[i], sr.ID)
			row.Values = append(row.Values, Value{Name: sc.Name, Kind: Int, I64: int64(v)})
		case sc.Det:
			dk := d.det(sc.SourceCol)
			if sc.StrValues {
				s, err := dk.DecryptString(sr.Bytes[i])
				if err != nil {
					return Row{}, fmt.Errorf("client: scan decrypt: %v", err)
				}
				row.Values = append(row.Values, Value{Name: sc.Name, Kind: Str, Str: s})
			} else {
				id, err := dk.DecryptU64(sr.Bytes[i])
				if err != nil {
					return Row{}, fmt.Errorf("client: scan decrypt: %v", err)
				}
				if len(sc.Dict) > 0 && id < uint64(len(sc.Dict)) {
					row.Values = append(row.Values, Value{Name: sc.Name, Kind: Str, Str: sc.Dict[id]})
				} else {
					row.Values = append(row.Values, Value{Name: sc.Name, Kind: Int, I64: int64(id)})
				}
			}
		default:
			if len(sr.Strs) > i && sr.Strs[i] != "" {
				row.Values = append(row.Values, Value{Name: sc.Name, Kind: Str, Str: sr.Strs[i]})
			} else {
				row.Values = append(row.Values, Value{Name: sc.Name, Kind: Int, I64: int64(sr.U64s[i])})
			}
		}
	}
	return row, nil
}

// sortRows orders result rows by group key for stable output.
func sortRows(rows []Row) {
	sort.SliceStable(rows, func(a, b int) bool {
		ka, kb := rows[a].Key, rows[b].Key
		if ka == nil || kb == nil {
			return false
		}
		if ka.Kind == Str || kb.Kind == Str {
			return ka.Str < kb.Str
		}
		return ka.I64 < kb.I64
	})
}
