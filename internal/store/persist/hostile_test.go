package persist

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// hostileSeg is one segment's worth of rows that a block codec gets wrong
// if it can get anything wrong.
type hostileSeg struct {
	name  string
	zones []string // hot set for the zone maps
	rows  []Row
}

// hostileSegs is THE generator of the codec differential: the same rows
// were written through the v5 writer at the last commit that had one
// (testdata/v5/<name>.seg) and are written through the v6 writer by the
// tests. Deterministic; the names it interns are its own ("hz-" prefix), in
// an order the differential test's process deliberately pre-empts — but
// for "raw" and "amount", the names the v6 writer's templates key on, in
// the segments written for them.
func hostileSegs() []hostileSeg {
	rng := rand.New(rand.NewSource(26))
	ts := func(i int) string { return EncodeTS(int64(4102732800 + i)) }
	hex := func(n int) string {
		const digits = "0123456789abcdef"
		b := make([]byte, n)
		for i := range b {
			b[i] = digits[rng.Intn(16)]
		}
		return string(b)
	}
	var segs []hostileSeg
	add := func(name string, zones []string, rows []Row) {
		slices.SortStableFunc(rows, func(a, b Row) int { return strings.Compare(a.Key, b.Key) })
		rows = slices.CompactFunc(rows, func(a, b Row) bool { return a.Key == b.Key })
		segs = append(segs, hostileSeg{name, zones, rows})
	}

	// Writer dictionary order: first use is z, y, x.
	for _, n := range []string{"hz-ord-z", "hz-ord-y", "hz-ord-x"} {
		InternColumn(n)
	}

	// Event-shaped rows: shared key prefixes, a near-constant amount, low-
	// and high-cardinality attributes, long values with common heads,
	// column sets that depend on the row's kind. Some four hundred rows:
	// six full blocks and a short one.
	var rows []Row
	severities := []string{"CORRECTED", "UNCORRECTED", "FATAL"}
	for i := 0; i < 420; i++ {
		source := fmt.Sprintf("c%d-0c%ds%dn%d", rng.Intn(2), rng.Intn(3), rng.Intn(8), rng.Intn(4))
		cols := []Col{C("hz-source", source), C("hz-amount", "1")}
		if rng.Intn(20) == 0 {
			cols[1].Value = fmt.Sprint(2 + rng.Intn(40))
		}
		switch kind := rng.Intn(10); {
		case kind < 6:
			sev, bank, status := severities[rng.Intn(3)], fmt.Sprint(rng.Intn(6)), "0x"+hex(16)
			cols = append(cols, C("hz-raw", "Machine Check Exception: "+sev+" Bank "+bank+": "+status),
				C("hz-attr.severity", sev), C("hz-attr.bank", bank), C("hz-attr.status", status))
		case kind < 9:
			ost, op := "OST"+hex(4), []string{"ost_read", "ost_write", "ost_connect", "ldlm_enqueue"}[rng.Intn(4)]
			cols = append(cols, C("hz-raw", "LustreError: 11-0: atlas2-"+ost+"-osc: Communicating with 10.36.1.1@o2ib, operation "+op+" failed with -110"),
				C("hz-attr.ost", ost), C("hz-attr.op", op))
		default: // no raw text at all
			cols = append(cols, C("hz-attr.failed", fmt.Sprintf("c%d-%d", rng.Intn(8), rng.Intn(16))))
		}
		rows = append(rows, MakeRow(ts(i/3)+":"+source+fmt.Sprintf("#%d", i%3), int64(1000+i), cols))
	}
	add("events", []string{"hz-source", "hz-amount", "hz-ghost"}, rows)

	// One row; one full block exactly; one row more than two blocks.
	add("one", nil, []Row{MakeRow(ts(0)+":only", -7, []Col{C("hz-source", "c0-0c0s0n0"), C("hz-amount", "3")})})
	for _, n := range []int{indexEvery, 2*indexEvery + 1} {
		rows = nil
		for i := 0; i < n; i++ {
			rows = append(rows, MakeRow(ts(i), int64(i*i%97), []Col{C("hz-amount", fmt.Sprint(i%3)), C("hz-grp", fmt.Sprintf("g%d", i/indexEvery))}))
		}
		add(fmt.Sprintf("rows%d", n), []string{"hz-grp", "hz-amount"}, rows)
	}

	// Absent cell, explicit empty cell and value, in every mix: a column
	// that is empty in every row it appears in, a column that only ever
	// appears in one row of a block, rows without any cell.
	rows = nil
	for i := 0; i < 3*indexEvery; i++ {
		var cols []Col
		switch i % 3 {
		case 0:
			cols = append(cols, C("hz-mix", ""))
		case 1:
			cols = append(cols, C("hz-mix", fmt.Sprint(i%5)))
		}
		if i%2 == 0 {
			cols = append(cols, C("hz-void", ""))
		}
		if i%indexEvery == 17 {
			cols = append(cols, C("hz-lone", "x"), C("hz-lone-empty", ""))
		}
		if i%7 == 3 {
			cols = nil
		}
		rows = append(rows, MakeRow(ts(i), int64(i), cols))
	}
	add("empties", []string{"hz-mix", "hz-void"}, rows)

	// Cardinalities around the dictionary code widths: 2, 16, 17 and 64
	// distinct values per block, more than 255 over the segment, and a
	// column where a dictionary saves nothing.
	rows = nil
	for i := 0; i < 6*indexEvery; i++ {
		rows = append(rows, MakeRow(ts(i), int64(i), []Col{
			C("hz-d2", fmt.Sprint(i%2)), C("hz-d16", fmt.Sprintf("v%02d", i%16)), C("hz-d17", fmt.Sprintf("v%02d", i%17)),
			C("hz-d64", fmt.Sprintf("value-%03d", i)), C("hz-long16", strings.Repeat("ab", 20)+fmt.Sprint(i%16)),
			C("hz-short", string(rune('a'+i%26))),
		}))
	}
	add("distinct", []string{"hz-d2", "hz-d64"}, rows)

	// A value of 70 KiB — longer than a pooled read buffer, with lengths of
	// three varint bytes — among small ones, and front-codable neighbours.
	big := strings.Repeat("0123456789abcdef", 70<<6)
	rows = nil
	for i := 0; i < 10; i++ {
		v := "head-shared-by-every-value-of-the-column/" + fmt.Sprint(i)
		if i == 4 {
			v = big
		}
		if i == 5 {
			v = big[:1<<10] + "!"
		}
		rows = append(rows, MakeRow(ts(i), 5, []Col{C("hz-blob", v), C("hz-amount", "1")}))
	}
	add("big", nil, rows)

	// Keys that are no timestamps: sharing nothing, each a prefix of the
	// next, with bytes 0x00 and 0xff, nineteen characters that are not all
	// digits, and one longer than a short varint.
	keys := []string{"\x00", "\x00\x00", "\x00\xff", "0000000000000000001", "000000000000000000x", "00000000000000000012:tail",
		"A", "B", "a", "aa", "aaa", "aaa\x00", "b", strings.Repeat("k", 200), "z", "\xff", "\xff\xff"}
	rows = nil
	for i, k := range keys {
		rows = append(rows, MakeRow(k, int64(100-i*13), []Col{C("hz-val", k+"\x00\xff"), C("hz-amount", fmt.Sprint(i))}))
	}
	add("keys", []string{"hz-val"}, rows)

	// Column sets that change from row to row, and more distinct columns
	// in a block than rows.
	rows = nil
	for i := 0; i < 2*indexEvery+9; i++ {
		cols := []Col{C(fmt.Sprintf("hz-w%02d", i%83), fmt.Sprint(i)), C(fmt.Sprintf("hz-w%02d", (i*7+1)%83), "w")}
		if i%5 == 0 {
			cols = append(cols, C("hz-ord-x", fmt.Sprint(i)), C("hz-ord-z", "z"))
		} else {
			cols = append(cols, C("hz-ord-y", fmt.Sprint(i%4)))
		}
		rows = append(rows, MakeRow(ts(i), int64(i), cols))
	}
	add("shifting", []string{"hz-ord-x", "hz-ord-y", "hz-w00"}, rows)

	// Raw text that a template over its row's other cells gets wrong if it
	// can get anything wrong: a sibling value twice, or inside constant
	// text, or equal to the whole text; holes next to letters and next to
	// each other; an empty text; a hole column some rows lack; an explicit
	// empty sibling; non-ASCII text; the amount in the text; a source
	// column some rows lack.
	rows = nil
	for i := 0; i < 4*indexEvery+5; i++ {
		n, amount := fmt.Sprint(i%4), fmt.Sprint(1+i%3)
		ost := fmt.Sprintf("OST%04x", i%5)
		cols := []Col{C("amount", amount)}
		if i%11 != 4 {
			cols = append(cols, C("hz-source", fmt.Sprintf("c0-0c0s%dn%d", i%3, i%4)))
		}
		var raw string
		switch k := i % 13; k {
		case 0:
			raw = "Bank " + n + ": " + n + " errors on Bank " + n
			cols = append(cols, C("hz-attr.bank", n))
		case 1:
			raw = "Bank an: an"
			cols = append(cols, C("hz-attr.word", "an"))
		case 2:
			raw = ost
			cols = append(cols, C("hz-attr.ost", ost))
		case 3:
			cols = append(cols, C("hz-attr.ost", ost))
		case 4:
			raw = "error at DIMM" + n + " (node)"
			cols = append(cols, C("hz-attr.dimm", n))
		case 5:
			raw = "atlas2-" + ost[:3] + ost[3:] + "-osc"
			cols = append(cols, C("hz-attr.ostA", ost[:3]), C("hz-attr.ostB", ost[3:]))
		case 6, 7:
			raw = "node c" + n + " down, node c" + n + " up"
			if k == 6 {
				cols = append(cols, C("hz-attr.node", "c"+n))
			}
		case 8:
			raw = "ÉCHEC du nœud Ünit-" + n + " — échec " + ost
			cols = append(cols, C("hz-attr.unit", "Ünit-"+n), C("hz-attr.ost", ost))
		case 9:
			raw = "count " + amount + " seen " + amount
		case 10:
			raw = "x= y " + ost
			cols = append(cols, C("hz-attr.x", ""), C("hz-attr.ost", ost))
		case 11:
			raw = "Machine Check Exception: CORRECTED Bank " + n + ": 0x" + hex(16)
			cols = append(cols, C("hz-attr.bank", n))
		case 12:
			raw = "ab" + n + "cd" + n + "ef"
			cols = append(cols, C("hz-attr.bank", n), C("hz-attr.ost", "cd"))
		}
		if raw != "" || i%13 == 3 {
			cols = append(cols, C("raw", raw))
		}
		rows = append(rows, MakeRow(ts(i), int64(i), cols))
	}
	add("templates", []string{"hz-source", "amount"}, rows)

	// Sources around the section dictionary's size, each in two rows:
	// 256 distinct values (and, in the last block, rows without one), and
	// 257.
	for _, distinct := range []int{256, 257} {
		rows = nil
		for i := 0; i < 10*indexEvery; i++ {
			j := i / 2 % distinct
			cols := []Col{C("amount", "1")}
			if distinct == 257 || i < 9*indexEvery || i%5 != 0 {
				cols = append(cols, C("hz-source", fmt.Sprintf("c%d-%dc%ds%dn%d", j/128, j/64%2, j/8%8, j/4%2, j%4)))
			}
			rows = append(rows, MakeRow(ts(i), int64(i), cols))
		}
		add(fmt.Sprintf("sources%d", distinct), []string{"hz-source"}, rows)
	}
	return segs
}
