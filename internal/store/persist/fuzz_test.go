package persist

import (
	"bytes"
	"encoding/binary"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
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
	_, keyErr := decodeFrontCoded(body, total, n, ^uint64(0), keys, make([]byte, 0, total))
	ts := make([]int64, n)
	tsErr := frontTS(body, total, n, ts)
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
	// A selective rebuild builds the selected keys alone, byte for byte.
	const sel uint64 = 0x9249249249249249 // every third key
	some := make([]string, n)
	arena, err := decodeFrontCoded(body, total, n, sel, some, make([]byte, 0, total))
	if err != nil {
		t.Fatalf("%q: selective rebuild fails with %v where the whole one passes", body, err)
	}
	kept := 0
	for i, key := range some {
		if sel&(1<<i) != 0 {
			kept += len(keys[i])
			if key != keys[i] {
				t.Fatalf("selected key %d: %q, want %q", i, key, keys[i])
			}
		} else if key != "" {
			t.Fatalf("unselected key %d rebuilt as %q", i, key)
		}
	}
	if len(arena) != kept {
		t.Fatalf("a selective rebuild keeps %d bytes, its keys take %d", len(arena), kept)
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
// whose keys do not. Zone IDs are name-table indexes, as on disk, so the
// name table maps to itself.
func foldedFooter() (*footerMeta, []blockFold, []uint32) {
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
	return meta, fold, []uint32{0, 1}
}

// selfIDs is the name table of m mapped to itself: what a footer decoded
// but not opened re-encodes through.
func selfIDs(m *footerMeta) []uint32 {
	ids := make([]uint32, len(m.ColNames))
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}

// fuzzTable is the string table the footer fuzzer decodes footers
// against: what the seeds' footers were encoded with.
func fuzzTable() *strTable {
	tab := &strTable{}
	for _, s := range []string{"amount", "source", "raw", "all constant", "at ", " and ", "", "1", "7", "c0-0c0s0n0", "c0-0c0s0n1", "c0-0c0s0n3"} {
		tab.ref(s)
	}
	return tab
}

// withSection appends body to the footer b as the section of tag.
func withSection(b []byte, tag uint64, body []byte) []byte {
	return sealSection(append(b, body...), len(b), tag)
}

// v8Footer encodes m as a v8 footer: its sections untagged, unsized and
// all three of them.
func v8Footer(m *footerMeta, fold []blockFold, ids []uint32, tab *strTable) []byte {
	b := appendFoldSection(appendMeta(nil, m, ids, tab), m.Blocks, fold)
	return appendGroupSection(appendCodecSection(b, m, tab), fold)
}

// hostileFoldSections are footers, against fuzzTable, whose fold section
// is damaged: each must fail to decode.
func hostileFoldSections() map[string][]byte {
	meta, fold, ids := foldedFooter()
	tab := fuzzTable()
	with := func(body []byte) []byte {
		return withSection(withSection(appendMeta(nil, meta, ids, tab), tagFold, body), tagCodec, appendCodecSection(nil, meta, tab))
	}
	good := appendFoldSection(nil, meta.Blocks, fold)
	flag := slices.Clone(good)
	flag[1] = 2 // the first block's flag
	return map[string][]byte{
		"truncated":          with(good[:3]),
		"count only":         with(binary.AppendUvarint(nil, uint64(len(fold)))),
		"fewer blocks":       with(appendFoldSection(nil, meta.Blocks, fold[:1])),
		"more blocks":        with(appendFoldSection(nil, append(slices.Clone(meta.Blocks), meta.Blocks[1]), append(fold, fold[1]))),
		"bad flag":           with(flag),
		"byte past the body": with(append(slices.Clone(good), 0)),
		"trailing byte":      append(appendFooter(nil, meta, fold, ids, tab), 0),
		"counts beyond cells": with(appendFoldSection(nil, meta.Blocks,
			[]blockFold{fold[0], {counts: []colCounts{{id: 0, cells: 3, sum: 3}}}})),
	}
}

// fixtureFooters returns the footers of the hostile generator's segments
// and of groupRows' re-encoded against tab: the checked-in v8 fixtures' in
// the v8 layout and those the v9 writer writes, group lists included.
func fixtureFooters(t testing.TB, tab *strTable) [][]byte {
	t.Helper()
	var out [][]byte
	dir := t.TempDir()
	segs := append(hostileSegs(), hostileSeg{"groups", []string{"source", "amount"}, groupRows()})
	for i, hs := range segs {
		paths := []string{writeV9(t, dir, hs, uint64(i+1)).path}
		if hs.name != "groups" {
			paths = append(paths, v8Fixture(hs))
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			secs, _, own, err := readSections(bytes.NewReader(data), int64(len(data)))
			if err != nil || len(secs) != 1 {
				t.Fatalf("%s: %d sections: %v", path, len(secs), err)
			}
			sec := data[:secs[0].len]
			foot := int(binary.LittleEndian.Uint32(sec[len(sec)-trailerLen:]))
			v8 := string(sec[:len(segHeader)]) == segHeaderV8
			var implied []uint64
			if v8 {
				implied = v8Sections
			}
			m, fold, err := decodeFooter(sec[len(sec)-trailerLen-foot:len(sec)-trailerLen], implied, own)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			fb := appendFooter(nil, m, fold, selfIDs(m), tab)
			if v8 {
				fb = v8Footer(m, fold, selfIDs(m), tab)
			}
			out = append(out, fb)
		}
	}
	return out
}

// FuzzSegmentFooter feeds arbitrary bytes to the footer decoder, as a v8
// footer and as a v9 one against fuzzTable, extended by the seeds: any
// outcome but a panic is acceptable, and a valid decode must re-encode as
// v9 — what compaction does with a v8 section it moves — and read the same
// with a section of an unknown tag behind it. The seeds hold group lists,
// the hostile generator's among them in both layouts, each section and
// each directory the decoder must refuse, and a footer with unknown
// sections.
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
	tab := fuzzTable()
	f.Add(appendFooter(nil, &meta, []blockFold{{}}, selfIDs(&meta), tab))
	f.Add([]byte(""))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(appendFooter(nil, &meta, []blockFold{{timed: true, counts: []colCounts{{id: 1, cells: 1, sum: 4}}}}, selfIDs(&meta), tab))
	fm, fold, ids := foldedFooter()
	f.Add(appendFooter(nil, fm, fold, ids, tab))
	hostile := hostileFoldSections()
	for _, name := range slices.Sorted(maps.Keys(hostile)) {
		f.Add(hostile[name])
	}
	cm, cfold, cids := codecFooter()
	f.Add(appendFooter(nil, cm, cfold, cids, tab))
	for _, name := range slices.Sorted(maps.Keys(hostileCodecSections())) {
		f.Add(hostileCodecSections()[name])
	}
	gm, gfold, gids := groupFooter()
	f.Add(appendFooter(nil, gm, gfold, gids, tab))
	hostile = hostileGroupSections()
	for _, name := range slices.Sorted(maps.Keys(hostile)) {
		f.Add(hostile[name])
	}
	f.Add(v8Footer(gm, gfold, gids, tab))
	hostile = hostileDirectories()
	for _, name := range slices.Sorted(maps.Keys(hostile)) {
		f.Add(hostile[name])
	}
	f.Add(unknownSections(appendFooter(nil, gm, gfold, gids, tab)))
	for _, fb := range fixtureFooters(f, tab) {
		f.Add(fb)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFooterRoundTrip(t, data, v8Sections, tab)
		checkFooterRoundTrip(t, data, nil, tab)
	})
}

// checkFooterRoundTrip decodes data as a footer against tab, of the
// implied sections or of tagged ones where implied is nil, and, if that
// succeeds, holds its v9 re-encoding to it, with and without unknown
// sections behind it.
func checkFooterRoundTrip(t *testing.T, data []byte, implied []uint64, tab *strTable) {
	m, fold, err := decodeFooter(data, implied, tab)
	if err != nil {
		return
	}
	if m.Rows < 0 || m.DataLen < 0 {
		t.Fatalf("decoded nonsense counts from %x: %+v", data, m)
	}
	if len(fold) != len(m.Blocks) {
		t.Fatalf("fold section of %d records for %d blocks", len(fold), len(m.Blocks))
	}
	for _, b := range m.Blocks {
		for j := range b.Zones {
			if slices.ContainsFunc(b.Zones[:j], func(z ColZone) bool { return z.ID == b.Zones[j].ID }) {
				return // only a writer's footer zones a column once
			}
		}
	}
	// Zone IDs are still name-table indexes here, as on disk.
	out := &strTable{}
	fb := appendFooter(nil, m, fold, selfIDs(m), out)
	m2, fold2, err := decodeFooter(fb, nil, out)
	if err != nil {
		t.Fatalf("re-decode of re-encoded footer failed: %v", err)
	}
	if m3, fold3, err := decodeFooter(unknownSections(fb), nil, out); err != nil || !reflect.DeepEqual(m2, m3) || !reflect.DeepEqual(fold2, fold3) {
		t.Fatalf("unknown sections change the footer: %v", err)
	}
	m2.nameRefs = nil
	if !reflect.DeepEqual(m.Dicts, m2.Dicts) || !reflect.DeepEqual(m.Templates, m2.Templates) || m.TmplCol != m2.TmplCol && m.Templates != nil {
		t.Fatalf("codec section round trip: %+v %+v vs %+v %+v", m.Dicts, m.Templates, m2.Dicts, m2.Templates)
	}
	if m2.Table != m.Table || m2.Rows != m.Rows || !slices.Equal(m2.ColNames, m.ColNames) || !slices.Equal(m2.Index, m.Index) ||
		!reflect.DeepEqual(m2.Blocks, m.Blocks) || !slices.Equal(m2.Leaves, m.Leaves) {
		t.Fatalf("footer round trip mismatch: %+v vs %+v", m, m2)
	}
	if len(m.Index) > 0 && m2.MinKey != m.Index[0].Key {
		t.Fatalf("v9 minimum key %q, first index key %q", m2.MinKey, m.Index[0].Key)
	}
	if !reflect.DeepEqual(fold, fold2) {
		t.Fatalf("fold section round trip: %+v vs %+v", fold, fold2)
	}
}

// TestFooterRoundTrip pins the binary footer codec on representative
// values, including delta-encoded index offsets, names and constants
// through the file's string table, the minimum key taken from the index,
// and the fold section; and refuses a damaged fold section.
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
	tab := &strTable{}
	fb := appendFooter(nil, &meta, make([]blockFold, 3), selfIDs(&meta), tab)
	if !slices.Equal(tab.strs, meta.ColNames) {
		t.Fatalf("string table %q, want the names %q", tab.strs, meta.ColNames)
	}
	if bytes.Contains(fb, []byte(meta.ColNames[1])) || bytes.Count(fb, []byte(meta.MinKey)) != 1 {
		t.Fatal("the footer holds a name, or the minimum key beside the first index key")
	}
	got, _, err := decodeFooter(fb, nil, tab)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table != meta.Table || got.Partition != meta.Partition || got.Seq != meta.Seq ||
		got.Rows != meta.Rows || got.MinKey != meta.MinKey || got.MaxKey != meta.MaxKey ||
		got.MinTS != meta.MinTS || got.MaxTS != meta.MaxTS || got.MaxWriteTS != meta.MaxWriteTS ||
		got.DataLen != meta.DataLen || got.DataCRC != meta.DataCRC {
		t.Fatalf("footer scalar mismatch:\ngot  %+v\nwant %+v", got, meta)
	}
	if !slices.Equal(got.ColNames, meta.ColNames) || !slices.Equal(got.Index, meta.Index) || !slices.Equal(got.nameRefs, []uint32{0, 1, 2, 3}) {
		t.Fatalf("footer tables: %+v", got)
	}

	fm, wantFold, ids := foldedFooter()
	withFold, gotFold, err := decodeFooter(appendFooter(nil, fm, wantFold, ids, tab), nil, tab)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotFold, wantFold) || !reflect.DeepEqual(withFold.Blocks, fm.Blocks) {
		t.Fatalf("fold section: got %+v, want %+v", gotFold, wantFold)
	}
	for name, fb := range hostileFoldSections() {
		if _, _, err := decodeFooter(fb, nil, fuzzTable()); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// codecFooter is foldedFooter with a codec section: a dictionary of
// "amount" holding "", and two templates over "source", of no hole and of
// two.
func codecFooter() (*footerMeta, []blockFold, []uint32) {
	m, fold, ids := foldedFooter()
	m.ColNames = append(m.ColNames, "raw")
	m.Dicts = []sectionDict{{vals: []string{"1", "", "7"}, empty: 1}, {}, {}}
	m.TmplCol = 2
	m.Templates = []Template{
		{Consts: []string{"all constant"}, local: []uint32{}, size: 12},
		{Consts: []string{"at ", " and ", ""}, local: []uint32{1, 1}, size: 8},
	}
	return m, fold, append(ids, 2)
}

// hostileCodecSections are footers, against fuzzTable, whose codec
// section is damaged or names strings past the table: each must fail to
// decode.
func hostileCodecSections() map[string][]byte {
	m, fold, ids := foldedFooter()
	tab := fuzzTable()
	bare := withSection(appendMeta(nil, m, ids, tab), tagFold, appendFoldSection(nil, m.Blocks, fold))
	with := func(codec ...uint64) []byte {
		var b []byte
		for _, v := range codec {
			b = binary.AppendUvarint(b, v)
		}
		return withSection(slices.Clone(bare), tagCodec, b)
	}
	cm, _, _ := codecFooter()
	good := appendCodecSection(nil, cm, tab)
	pastNames := appendMeta(nil, m, ids, &strTable{strs: []string{"amount"}, refs: map[string]uint32{"amount": 0, "source": 99}})
	return map[string][]byte{
		"missing":                  bare,
		"truncated":                withSection(slices.Clone(bare), tagCodec, good[:len(good)-1]),
		"byte past the body":       withSection(slices.Clone(bare), tagCodec, append(slices.Clone(good), 0)),
		"dictionary past table":    with(1, 2, 1, 0, 0),
		"empty dictionary":         with(1, 0, 0, 0),
		"dictionaries descending":  with(2, 1, 1, 0, 0, 1, 1, 0),
		"value past the table":     with(1, 0, 1, 99, 0),
		"too large dictionary":     with(1, 0, sectionDictMax+1),
		"too many templates":       with(0, maxTemplates+1),
		"template column past":     with(0, 1, 2, 0, 0),
		"hole past table":          with(0, 1, 0, 1, 0, 5, 0),
		"hole in template column":  with(0, 1, 0, 1, 0, 0, 0),
		"hole count past the rest": with(0, 1, 1, 200, 0),
		"constant past the table":  with(0, 1, 0, 0, 99),
		"name past the table": withSection(withSection(pastNames, tagFold, appendFoldSection(nil, m.Blocks, fold)),
			tagCodec, appendCodecSection(nil, m, tab)),
	}
}

// TestCodecSectionRoundTrip pins the footer's codec section: the
// dictionaries and templates come back as written, a footer without a
// codec section or with a damaged one is refused, and a footer read
// without a string table is refused too.
func TestCodecSectionRoundTrip(t *testing.T) {
	m, fold, ids := codecFooter()
	tab := fuzzTable()
	fb := appendFooter(nil, m, fold, ids, tab)
	got, gotFold, err := decodeFooter(fb, nil, tab)
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
		if _, _, err := decodeFooter(fb, nil, fuzzTable()); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	if _, _, err := decodeFooter(fb, nil, nil); err == nil {
		t.Error("a footer decoded without its string table")
	}
}

// groupFooter is codecFooter with a section dictionary of "source" and a
// group list of it in the second block, whose two rows hold codes 0 and 2,
// the second row counting 2.
func groupFooter() (*footerMeta, []blockFold, []uint32) {
	m, fold, ids := codecFooter()
	m.Dicts[0].derived = new(sync.Map)
	m.Dicts[1] = sectionDict{vals: []string{"c0-0c0s0n0", "c0-0c0s0n1", "c0-0c0s0n3"}, empty: -1, derived: new(sync.Map)}
	fold[1].group = &groupList{id: 1, local: 1, dict: &m.Dicts[1], present: [4]uint64{0b101},
		exc: []groupExc{{sum: 2, rows: 1, code: 2}}}
	return m, fold, ids
}

// hostileGroupSections are footers, against fuzzTable, whose group section
// is damaged or does not describe its blocks: each must fail to decode.
func hostileGroupSections() map[string][]byte {
	tab := fuzzTable()
	m, fold, ids := groupFooter()
	old := withSection(withSection(appendMeta(nil, m, ids, tab), tagFold, appendFoldSection(nil, m.Blocks, fold)),
		tagCodec, appendCodecSection(nil, m, tab))
	good := appendGroupSection(nil, fold)
	flag := slices.Clone(good)
	flag[0] = 2 // the first block's
	groups := func(body []byte) []byte { return withSection(slices.Clone(old), tagGroups, body) }
	// listed gives the second block, of two rows counting 3, the group list
	// list — bitmap, exception count, exceptions — and the first none.
	listed := func(list ...byte) []byte { return groups(append([]byte{0, 1}, list...)) }
	with := func(damage func(m *footerMeta, fold []blockFold, g *groupList)) []byte {
		m, fold, ids := groupFooter()
		damage(m, fold, fold[1].group)
		return appendFooter(nil, m, fold, ids, tab)
	}
	return map[string][]byte{
		"truncated":          groups(good[:len(good)-1]),
		"byte past the body": groups(append(slices.Clone(good), 0)),
		"bad flag":           groups(flag),
		"in a block of non-counts": with(func(_ *footerMeta, fold []blockFold, g *groupList) {
			fold[0].group = g
		}),
		"column without a dictionary": with(func(m *footerMeta, _ []blockFold, g *groupList) {
			g.dict, m.Dicts[1] = &sectionDict{vals: m.Dicts[1].vals}, sectionDict{}
		}),
		"code past the dictionary": with(func(_ *footerMeta, _ []blockFold, g *groupList) { g.present[0] = 0b1100 }),
		"more codes than rows":     listed(0b111, 0),
		"more codes than a block holds": with(func(m *footerMeta, fold []blockFold, g *groupList) {
			m.Blocks[1].Rows, m.Blocks[1].Zones[0].Cells, m.Blocks[1].Zones[0].NumCells = 300, 300, 300
			fold[1].counts[0] = colCounts{id: 0, cells: 300, sum: 300}
			m.Dicts[1].vals = slices.Repeat([]string{"1"}, 100)
			g.present, g.exc = [4]uint64{1<<64 - 1, 1<<36 - 1}, nil
		}),
		"exception past the codes":  listed(0b101, 1, 2<<2|3, 1, 4),
		"exceptions descending":     listed(0b101, 2, 1<<2|3, 1, 4, 0<<2|3, 1, 2),
		"a short form spelt out":    listed(0b001, 1, 0<<2|3, 2, 4),
		"one row counting 1, spelt": listed(0b101, 1, 1<<2|3, 1, 2),
		"more exceptions than codes": with(func(_ *footerMeta, _ []blockFold, g *groupList) {
			g.exc = append(g.exc, g.exc[0], g.exc[0])
		}),
		"one row counting 1":      with(func(_ *footerMeta, _ []blockFold, g *groupList) { g.exc[0].sum = 1 }),
		"no rows":                 with(func(_ *footerMeta, _ []blockFold, g *groupList) { g.exc[0].rows = 0 }),
		"rows short of the block": with(func(_ *footerMeta, _ []blockFold, g *groupList) { g.present[0], g.exc = 1, nil }),
		"counts off the block's":  with(func(_ *footerMeta, _ []blockFold, g *groupList) { g.exc[0].sum = 5 }),
	}
}

// TestGroupSectionRoundTrip pins the footer's group section: the lists
// come back as written, each bound to its section dictionary, from a v9
// footer and from the same footer in the v8 layout; the v9 footer without
// its group section reads with no list, the v8 one is refused; and each
// hostile group section is refused.
func TestGroupSectionRoundTrip(t *testing.T) {
	m, fold, ids := groupFooter()
	tab := fuzzTable()
	fb := appendFooter(nil, m, fold, ids, tab)
	for _, c := range []struct {
		fb      []byte
		implied []uint64
	}{{fb, nil}, {v8Footer(m, fold, ids, tab), v8Sections}} {
		got, gotFold, err := decodeFooter(c.fb, c.implied, tab)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotFold, fold) || gotFold[1].group.dict != &got.Dicts[1] {
			t.Fatalf("fold with groups %+v, want %+v", gotFold, fold)
		}
	}
	noLists := slices.Clone(fold)
	noLists[1].group = nil
	if _, got, err := decodeFooter(appendFooter(nil, m, noLists, ids, tab), nil, tab); err != nil || !reflect.DeepEqual(got, noLists) {
		t.Fatalf("without a group section: %+v, %v", got, err)
	}
	v8Bare := appendCodecSection(appendFoldSection(appendMeta(nil, m, ids, tab), m.Blocks, fold), m, tab)
	if _, _, err := decodeFooter(v8Bare, v8Sections, tab); err == nil {
		t.Fatal("a v8 footer without its group section decoded")
	}
	for name, fb := range hostileGroupSections() {
		if _, _, err := decodeFooter(fb, nil, fuzzTable()); err == nil {
			t.Errorf("%s: decoded", name)
		}
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
