package persist

import (
	"bytes"
	"encoding/binary"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hpclog/internal/objstore"
)

// FuzzRowCodec round-trips structured rows derived from the fuzz input
// through the ID-interned block codec and asserts lossless decode, then
// feeds the raw input directly to the decoder, which must reject garbage
// gracefully (error, never a panic or a hang).
func FuzzRowCodec(f *testing.F) {
	f.Add([]byte("key\x00col\x01value\x02"), int64(7), uint8(3))
	f.Add([]byte(""), int64(0), uint8(0))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"), int64(-1), uint8(9))
	f.Add([]byte("0000000000000001000:a|amount|3|raw|hello world"), int64(42), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, ts int64, ncols uint8) {
		// Derive a deterministic row set from the input: split data into
		// chunks used as keys, names, and values.
		chunk := func(i int) string {
			if len(data) == 0 {
				return ""
			}
			lo := (i * 7) % len(data)
			hi := lo + 1 + (i*13)%9
			if hi > len(data) {
				hi = len(data)
			}
			return string(data[lo:hi])
		}
		nrows := int(ncols%4) + 1
		rows := make([]Row, 0, nrows)
		var lastKey string
		for i := 0; i < nrows; i++ {
			cols := make([]Col, 0, int(ncols)%5)
			for c := 0; c < int(ncols)%5; c++ {
				cols = append(cols, C("f-"+chunk(i+c), chunk(i*3+c)))
			}
			key := chunk(i) + string(rune('a'+i))
			if key <= lastKey {
				key = lastKey + "x"
			}
			lastKey = key
			rows = append(rows, MakeRow(key, ts+int64(i), cols))
		}

		buf := AppendRowsBlock(nil, rows)
		got, err := DecodeRowsBlock(NewStringDec(string(buf)), DefaultDict())
		if err != nil {
			t.Fatalf("decode of valid block failed: %v", err)
		}
		if len(got) != len(rows) {
			t.Fatalf("round trip: %d rows, want %d", len(got), len(rows))
		}
		for i := range rows {
			w, g := rows[i], got[i]
			if g.Key != w.Key || g.WriteTS != w.WriteTS {
				t.Fatalf("row %d: got (%q, %d) want (%q, %d)", i, g.Key, g.WriteTS, w.Key, w.WriteTS)
			}
			wm, gm := w.ColumnsMap(), g.ColumnsMap()
			if len(wm) != len(gm) {
				t.Fatalf("row %d: %d cols, want %d", i, len(gm), len(wm))
			}
			for k, v := range wm {
				if gm[k] != v {
					t.Fatalf("row %d col %q: got %q want %q", i, k, gm[k], v)
				}
			}
		}

		// A fresh decoder over arbitrary bytes must fail cleanly.
		if rows, err := DecodeRowsBlock(NewStringDec(string(data)), NewDict()); err == nil {
			// Valid by chance is fine; re-encode must then round trip.
			_ = rows
		}
	})
}

// checkFrontTS holds the timestamp walk of a key chunk to the key rebuild:
// frontTS fails iff decodeFrontCoded does, and where both accept, ts[i] is
// tsOf of the i-th rebuilt key. It reports whether the chunk was accepted.
func checkFrontTS(t *testing.T, body string, total, n int) bool {
	t.Helper()
	keys := make([]string, n)
	_, keyErr := decodeFrontCoded(body, total, keys, make([]byte, 0, total))
	ts := make([]int64, n)
	tsErr := frontTS(body, total, ts)
	if (keyErr == nil) != (tsErr == nil) {
		t.Fatalf("%q (%d keys, %d bytes): rebuild says %v, walk says %v", body, n, total, keyErr, tsErr)
	}
	if keyErr != nil {
		if keyErr.Error() != tsErr.Error() {
			t.Fatalf("%q: rebuild fails with %q, walk with %q", body, keyErr, tsErr)
		}
		return false
	}
	for i, key := range keys {
		if ts[i] != tsOf(key) {
			t.Fatalf("key %d %q: walk reads timestamp %d, tsOf %d", i, key, ts[i], tsOf(key))
		}
	}
	return true
}

// FuzzFrontTS: on any key chunk the timestamp walk of a lazily decoded
// block accepts what the key rebuild accepts and reads each key's
// timestamp as tsOf does. data is tried twice: as a chunk of n keys of
// total bytes, and as newline-separated keys, front-coded.
func FuzzFrontTS(f *testing.F) {
	ts := "1234567890123456789"
	for _, keys := range [][]string{
		{ts + ":a", ts[:18] + "8:b", ts[:18] + "8:c", ts[:18] + "8", ts[:18] + "85", ts[:18] + "8"}, // shared 18, 20, 19, 19, 19
		{"", "1", "12", ts[:17], ts[:18], ts, ts + "0", ts[:18], ts},                                // keys shorter than 19 around ones that are not
		{"x" + ts, ts[:5] + "x" + ts[6:], "-" + ts[1:], ts[:18] + "z", ts[:18] + "9:é", "ünï" + ts}, // non-digit heads
		{"9999999999999999999:x", "9999999999999999999:y", "0000000000000000000"},                   // int64 overflow, zero
		{EncodeTS(1503468000) + ":c0-0c0s0n0", EncodeTS(1503468001) + ":c0-0c0s0n0", EncodeTS(1503468001) + ":c11-7c2s7n3"},
	} {
		total := 0
		for _, k := range keys {
			total += len(k)
		}
		chunk := appendFrontCoded(nil, total, keys)
		_, body, err := frontHeader(string(chunk), len(keys))
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(body), uint8(len(keys)-1), uint16(total))
		f.Add([]byte(body[:len(body)-1]), uint8(len(keys)-1), uint16(total))
		f.Add([]byte(body), uint8(len(keys)-2), uint16(total-1))
		f.Add([]byte(strings.Join(keys, "\n")), uint8(0), uint16(0))
	}
	f.Add([]byte("\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01"), uint8(0), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, n uint8, total uint16) {
		checkFrontTS(t, string(data), int(total), int(n)%indexEvery+1)

		keys := strings.Split(string(data), "\n")
		keys = keys[:min(len(keys), indexEvery)]
		sum := 0
		for _, k := range keys {
			sum += len(k)
		}
		_, body, err := frontHeader(string(appendFrontCoded(nil, sum, keys)), len(keys))
		if err != nil {
			t.Fatal(err)
		}
		if !checkFrontTS(t, body, sum, len(keys)) {
			t.Fatalf("keys %q: front coding not accepted", keys)
		}
	})
}

// foldedFooter is a footer of two blocks with a fold section: one whose
// keys all carry timestamps and whose numeric zone holds counts, one
// whose keys do not. Zone IDs are name-table indexes, as on disk.
func foldedFooter() (*footerMeta, []blockFold, []int) {
	zones := func(num int) []ColZone {
		return []ColZone{
			{ID: 0, MinVal: "1", MaxVal: "9", Cells: num, NumCells: num, MinNum: 1, MaxNum: 9},
			{ID: 1, MinVal: "c0-0c0s0n0", MaxVal: "c0-0c0s0n3", Cells: 2},
		}
	}
	meta := &footerMeta{
		Table: "event_by_time", Partition: "417631:MCE", Seq: 3, Rows: 66,
		MinKey: "0000000001503468000:a", MaxKey: "x", MinTS: 1503468000, MaxWriteTS: 70,
		DataLen: 4096, DataCRC: 0x1234,
		ColNames: []string{"amount", "source"},
		Index:    []IndexEntry{{Key: "0000000001503468000:a", Off: 8}, {Key: "0000000001503468063:a", Off: 2048}},
		Blocks: []BlockStats{
			{MinKey: "0000000001503468000:a", MaxKey: "0000000001503468062:z", Rows: 64, Zones: zones(64)},
			{MinKey: "0000000001503468063:a", MaxKey: "x", Rows: 2, Zones: zones(2)},
		},
		Leaves: make([][objstore.HashLen]byte, 2),
	}
	fold := []blockFold{
		{timed: true, counts: []colCounts{{id: 0, cells: 63, sum: -9223372036854775000}}},
		{counts: []colCounts{{id: 0, cells: 2, sum: 3}}},
	}
	return meta, fold, []int{0, 1}
}

// hostileFoldSections are footers whose fold section is damaged: each must
// fail to decode.
func hostileFoldSections() map[string][]byte {
	meta, fold, local := foldedFooter()
	good := appendFooter(nil, meta, fold, local)
	bare := appendFooter(nil, meta, nil, local)
	flag := slices.Clone(good)
	flag[len(bare)+1] = 2 // the first block's flag
	return map[string][]byte{
		"truncated":     good[:len(good)-1],
		"count only":    binary.AppendUvarint(slices.Clone(bare), uint64(len(fold))),
		"fewer blocks":  appendFoldSection(slices.Clone(bare), fold[:1]),
		"more blocks":   appendFoldSection(slices.Clone(bare), append(fold, fold[1])),
		"bad flag":      flag,
		"trailing byte": append(slices.Clone(good), 0),
		"counts beyond cells": appendFoldSection(slices.Clone(bare),
			[]blockFold{fold[0], {counts: []colCounts{{id: 0, cells: 3, sum: 3}}}}),
	}
}

// FuzzSegmentFooter feeds arbitrary bytes to the footer decoder, as a v5
// and as a v6 footer: any outcome but a panic is acceptable, and a valid
// decode must re-encode.
func FuzzSegmentFooter(f *testing.F) {
	meta := footerMeta{
		Table: "events", Partition: "p1", Seq: 7, Rows: 2,
		MinKey: "a", MaxKey: "b", MinTS: 1, MaxTS: 2, MaxWriteTS: 9,
		DataLen: 100, DataCRC: 0xdeadbeef,
		ColNames: []string{"amount", "source"},
		Index:    []IndexEntry{{Key: "a", Off: 8}},
		Blocks: []BlockStats{{MinKey: "a", MaxKey: "b", MinWriteTS: 3, MaxWriteTS: 9, Rows: 2,
			Zones: []ColZone{{ID: 1, MinVal: "x", MaxVal: "y", Cells: 2, NumCells: 1, MinNum: 4, MaxNum: 4}},
			bloom: bloom{bits: "\x01\x02\x03\x04\x05\x06\x07\x08", k: bloomHashes}}},
		Leaves: make([][objstore.HashLen]byte, 1),
	}
	f.Add(appendFooter(nil, &meta, nil, []int{1}))
	f.Add([]byte(""))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(appendFooter(nil, &meta, []blockFold{{timed: true, counts: []colCounts{{id: 1, cells: 1, sum: 4}}}}, []int{1}))
	fm, fold, local := foldedFooter()
	f.Add(appendFooter(nil, fm, fold, local))
	hostile := hostileFoldSections()
	for _, name := range slices.Sorted(maps.Keys(hostile)) {
		f.Add(hostile[name])
	}
	cm, cfold, clocal := codecFooter()
	f.Add(appendCodecSection(appendFooter(nil, cm, cfold, clocal), cm))
	for _, name := range slices.Sorted(maps.Keys(hostileCodecSections())) {
		f.Add(hostileCodecSections()[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFooterRoundTrip(t, data, segVersionV5)
		checkFooterRoundTrip(t, data, SegVersion)
	})
}

// checkFooterRoundTrip decodes data as a footer of codec version and, if
// that succeeds, holds the re-encoding to it.
func checkFooterRoundTrip(t *testing.T, data []byte, version int) {
	{
		m, fold, err := decodeFooter(data, version)
		if err != nil {
			return
		}
		if m.Rows < 0 || m.DataLen < 0 {
			t.Fatalf("decoded nonsense counts from %x: %+v", data, m)
		}
		if fold != nil && len(fold) != len(m.Blocks) {
			t.Fatalf("fold section of %d records for %d blocks", len(fold), len(m.Blocks))
		}
		// Zone IDs are still name-table indexes here, as on disk.
		zoneLocal := []int{}
		if len(m.Blocks) > 0 {
			for _, z := range m.Blocks[0].Zones {
				zoneLocal = append(zoneLocal, int(z.ID))
			}
		}
		for _, b := range m.Blocks {
			if len(b.Zones) != len(zoneLocal) {
				return // only a writer's footer zones every block alike
			}
		}
		round := appendFooter(nil, m, fold, zoneLocal)
		if version == SegVersion {
			round = appendCodecSection(round, m)
		}
		m2, fold2, err := decodeFooter(round, version)
		if err != nil {
			t.Fatalf("re-decode of re-encoded footer failed: %v", err)
		}
		if !reflect.DeepEqual(m.Dicts, m2.Dicts) || !reflect.DeepEqual(m.Templates, m2.Templates) || m.TmplCol != m2.TmplCol && m.Templates != nil {
			t.Fatalf("codec section round trip: %+v %+v vs %+v %+v", m.Dicts, m.Templates, m2.Dicts, m2.Templates)
		}
		if m2.Table != m.Table || m2.Rows != m.Rows || len(m2.Index) != len(m.Index) ||
			len(m2.Blocks) != len(m.Blocks) || len(m2.Leaves) != len(m.Leaves) {
			t.Fatalf("footer round trip mismatch: %+v vs %+v", m, m2)
		}
		if !reflect.DeepEqual(fold, fold2) {
			t.Fatalf("fold section round trip: %+v vs %+v", fold, fold2)
		}
	}
}

// TestFooterRoundTrip pins the binary footer codec on representative
// values, including delta-encoded index offsets, with and without the fold
// section, and refuses a damaged fold section.
func TestFooterRoundTrip(t *testing.T) {
	meta := footerMeta{
		Table: "events", Partition: "412:MCE", Seq: 1 << 40, Rows: 12345,
		MinKey: "0000000000000001000:a", MaxKey: "0000000000000002000:z",
		MinTS: 1000, MaxTS: 2000, MaxWriteTS: -3,
		DataLen: 1 << 33, DataCRC: 0xcafebabe,
		ColNames: []string{"amount", "attr.bank", "raw", "source"},
		Index: []IndexEntry{
			{Key: "0000000000000001000:a", Off: 8},
			{Key: "0000000000000001500:m", Off: 4096},
			{Key: "0000000000000001900:x", Off: 10240},
		},
		Blocks: make([]BlockStats, 3),
		Leaves: make([][objstore.HashLen]byte, 3),
	}
	got, fold, err := decodeFooter(appendFooter(nil, &meta, nil, nil), segVersionV5)
	if err != nil {
		t.Fatal(err)
	}
	if fold != nil {
		t.Fatalf("a footer without a fold section decodes one: %+v", fold)
	}
	if got.Table != meta.Table || got.Partition != meta.Partition || got.Seq != meta.Seq ||
		got.Rows != meta.Rows || got.MinKey != meta.MinKey || got.MaxKey != meta.MaxKey ||
		got.MinTS != meta.MinTS || got.MaxTS != meta.MaxTS || got.MaxWriteTS != meta.MaxWriteTS ||
		got.DataLen != meta.DataLen || got.DataCRC != meta.DataCRC {
		t.Fatalf("footer scalar mismatch:\ngot  %+v\nwant %+v", got, meta)
	}
	if len(got.ColNames) != len(meta.ColNames) || len(got.Index) != len(meta.Index) {
		t.Fatalf("footer table sizes: %+v", got)
	}
	for i := range meta.ColNames {
		if got.ColNames[i] != meta.ColNames[i] {
			t.Fatalf("col name %d: %q", i, got.ColNames[i])
		}
	}
	for i := range meta.Index {
		if got.Index[i] != meta.Index[i] {
			t.Fatalf("index entry %d: %+v want %+v", i, got.Index[i], meta.Index[i])
		}
	}

	fm, wantFold, local := foldedFooter()
	img := appendFooter(nil, fm, wantFold, local)
	bare, noFold, err := decodeFooter(appendFooter(nil, fm, nil, local), segVersionV5)
	if err != nil || noFold != nil {
		t.Fatalf("footer without its fold section: %v, fold %+v", err, noFold)
	}
	withFold, gotFold, err := decodeFooter(img, segVersionV5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withFold, bare) {
		t.Fatalf("the fold section changes the footer it follows:\nwith    %+v\nwithout %+v", withFold, bare)
	}
	if !reflect.DeepEqual(gotFold, wantFold) {
		t.Fatalf("fold section: got %+v, want %+v", gotFold, wantFold)
	}
	for name, fb := range hostileFoldSections() {
		if _, _, err := decodeFooter(fb, segVersionV5); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// codecFooter is foldedFooter with a codec section: a dictionary of
// "amount" holding "", and two templates over "source", of no hole and of
// two.
func codecFooter() (*footerMeta, []blockFold, []int) {
	m, fold, local := foldedFooter()
	m.ColNames = append(m.ColNames, "raw")
	m.Dicts = []sectionDict{{vals: []string{"1", "", "7"}, empty: 1}, {}, {}}
	m.TmplCol = 2
	m.Templates = []Template{
		{Consts: []string{"all constant"}, Holes: []uint32{}, local: []uint32{}, size: 12},
		{Consts: []string{"at ", " and ", ""}, Holes: []uint32{1, 1}, local: []uint32{1, 1}, size: 8},
	}
	return m, fold, local
}

// hostileCodecSections are v6 footers whose codec section is damaged:
// each must fail to decode.
func hostileCodecSections() map[string][]byte {
	m, fold, local := foldedFooter()
	bare := appendFooter(nil, m, fold, local)
	with := func(codec ...uint64) []byte {
		b := slices.Clone(bare)
		for _, v := range codec {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	cm, cfold, clocal := codecFooter()
	good := appendCodecSection(appendFooter(nil, cm, cfold, clocal), cm)
	return map[string][]byte{
		"missing":                  bare,
		"truncated":                good[:len(good)-1],
		"trailing byte":            append(slices.Clone(good), 0),
		"dictionary past table":    with(1, 2, 1, 1, 'x', 0),
		"empty dictionary":         with(1, 0, 0, 0),
		"dictionaries descending":  append(with(2, 1, 1, 1, 'x'), append(binary.AppendUvarint(nil, 0), 1, 1, 'y', 0)...),
		"too large dictionary":     with(1, 0, sectionDictMax+1),
		"too many templates":       with(0, maxTemplates+1),
		"template column past":     with(0, 1, 2, 0, 0),
		"hole past table":          with(0, 1, 0, 1, 0, 5, 0),
		"hole in template column":  with(0, 1, 0, 1, 0, 0, 0),
		"hole count past the rest": with(0, 1, 1, 200, 0),
	}
}

// TestCodecSectionRoundTrip pins the v6 footer's codec section: the
// dictionaries and templates come back as written, a v6 footer without a
// codec section or with a damaged one is refused, and a v5 footer carries
// none.
func TestCodecSectionRoundTrip(t *testing.T) {
	m, fold, local := codecFooter()
	got, gotFold, err := decodeFooter(appendCodecSection(appendFooter(nil, m, fold, local), m), SegVersion)
	if err != nil {
		t.Fatal(err)
	}
	sameDicts := len(got.Dicts) == len(m.Dicts)
	for i := 0; sameDicts && i < len(m.Dicts); i++ {
		sameDicts = slices.Equal(got.Dicts[i].vals, m.Dicts[i].vals) && (len(m.Dicts[i].vals) == 0 || got.Dicts[i].empty == m.Dicts[i].empty)
	}
	if !sameDicts || got.TmplCol != m.TmplCol || !reflect.DeepEqual(gotFold, fold) {
		t.Fatalf("dictionaries %+v (column %d), want %+v (%d)", got.Dicts, got.TmplCol, m.Dicts, m.TmplCol)
	}
	for i := range m.Templates {
		w, g := m.Templates[i], got.Templates[i]
		if !slices.Equal(w.Consts, g.Consts) || !slices.Equal(w.local, g.local) || w.size != g.size {
			t.Fatalf("template %d: %+v, want %+v", i, g, w)
		}
	}
	for name, fb := range hostileCodecSections() {
		if _, _, err := decodeFooter(fb, SegVersion); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	if v5, _, err := decodeFooter(appendFooter(nil, m, fold, local), segVersionV5); err != nil || v5.Dicts != nil || v5.Templates != nil {
		t.Fatalf("v5 footer: %v, %+v %+v", err, v5.Dicts, v5.Templates)
	}
}

// TestDecodeUnknownColumnID pins the unknown-ID failure mode: a row
// referencing a local index beyond the unit's name table must fail with a
// clear error, not panic or fabricate a column.
func TestDecodeUnknownColumnID(t *testing.T) {
	// Hand-build a block: table with 1 name, one row referencing index 5.
	var b []byte
	b = appendColTable(b, []string{"v"})
	b = binary.AppendUvarint(b, 1) // one row
	b = binary.AppendUvarint(b, 1) // key len
	b = append(b, 'k')
	b = binary.AppendVarint(b, 9)  // write ts
	b = binary.AppendUvarint(b, 1) // one col
	b = binary.AppendUvarint(b, 5) // local index 5: unknown
	b = binary.AppendUvarint(b, 2)
	b = append(b, "xy"...)
	_, err := DecodeRowsBlock(NewStringDec(string(b)), NewDict())
	if err == nil {
		t.Fatal("decode with out-of-table column index succeeded")
	}
	if want := "unknown column id"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}
