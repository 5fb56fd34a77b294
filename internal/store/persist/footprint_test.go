package persist

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hpclog/internal/fsys"
	"hpclog/internal/objstore"
)

// Footprint splits the footer bytes of a directory's round files by part:
// what each part of the v9 footer costs, and what the string table of each
// file costs beside the per-section tables it replaces.
type Footprint struct {
	Files, Sections, Blocks           int
	Bloom, Zones, Index, Leaves, Fold int // the footers' per-block parts
	Groups                            int // the group section, per block too
	Dir                               int // the sections' tags and lengths
	Refs                              int // string-table entry numbers: column names, dictionary values, template constants
	Codec                             int // the codec section but its entry numbers
	Meta                              int // the rest: identity, key and time bounds, data length and CRC
	Table                             int // the files' string tables
	Inline                            int // what the entries the footers name would take inline, once per section
}

// Plus returns the sum of two footprints.
func (f Footprint) Plus(g Footprint) Footprint {
	return Footprint{
		f.Files + g.Files, f.Sections + g.Sections, f.Blocks + g.Blocks,
		f.Bloom + g.Bloom, f.Zones + g.Zones, f.Index + g.Index, f.Leaves + g.Leaves, f.Fold + g.Fold,
		f.Groups + g.Groups, f.Dir + g.Dir, f.Refs + g.Refs, f.Codec + g.Codec, f.Meta + g.Meta, f.Table + g.Table, f.Inline + g.Inline,
	}
}

// Footer returns the bytes of every footer part.
func (f Footprint) Footer() int {
	return f.Bloom + f.Zones + f.Index + f.Leaves + f.Fold + f.Groups + f.Dir + f.Refs + f.Codec + f.Meta
}

func (f Footprint) String() string {
	return fmt.Sprintf("%d files, %d sections, %d blocks: footers %d B = bloom %d + zones %d + index %d + leaves %d + fold %d + groups %d + dir %d + refs %d + codec %d + meta %d; string tables %d B for %d B inline",
		f.Files, f.Sections, f.Blocks, f.Footer(), f.Bloom, f.Zones, f.Index, f.Leaves, f.Fold, f.Groups, f.Dir, f.Refs, f.Codec, f.Meta, f.Table, f.Inline)
}

// FooterFootprint measures the v9 sections of the round files under dir,
// the data files and the stubs; it fails on a v8 section. Each footer is
// split by re-encoding its parts one by one, and the parts must add up to
// the footer as written.
func FooterFootprint(dir string) (Footprint, error) {
	var fp Footprint
	entries, err := fsys.OS.ReadDir(dir)
	if err != nil {
		return fp, err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, segFileExt) && !strings.HasSuffix(name, segStubExt) {
			continue
		}
		path := filepath.Join(dir, name)
		f, size, err := openSized(path)
		if err != nil {
			return fp, err
		}
		segs, _, tab, err := parseSections(f, size, path, nil)
		head := make([]byte, len(segHeader))
		for _, seg := range segs {
			if _, err = f.ReadAt(head, seg.base); err == nil && string(head) != segHeader {
				err = fmt.Errorf("%s: segment %d has header %q", path, seg.Seq(), head)
			}
			if err != nil {
				break
			}
		}
		f.Close()
		if err != nil {
			return fp, err
		}
		fp.Files++
		ref := make(map[string]uint32, len(tab.list()))
		for i, s := range tab.list() {
			ref[s] = uint32(i)
			fp.Table += uvarintLen(uint64(len(s))) + len(s)
		}
		fp.Table += uvarintLen(uint64(len(tab.list())))
		for _, seg := range segs {
			if err := fp.add(seg, ref); err != nil {
				return fp, fmt.Errorf("%s: segment %d: %w", path, seg.Seq(), err)
			}
		}
	}
	return fp, nil
}

// add counts the footer of seg, whose file's string table is ref.
func (fp *Footprint) add(seg *Segment, ref map[string]uint32) error {
	m := seg.meta
	fp.Sections++
	fp.Blocks += len(m.Blocks)
	str := func(s string) int { return uvarintLen(uint64(len(s))) + len(s) }
	entry := func(s string) int {
		fp.Inline += str(s)
		return uvarintLen(uint64(ref[s]))
	}
	var parts Footprint
	parts.Leaves = uvarintLen(uint64(len(m.Leaves))) + len(m.Leaves)*objstore.HashLen
	parts.Index = uvarintLen(uint64(len(m.Index)))
	prev := int64(0)
	for _, e := range m.Index {
		parts.Index += str(e.Key) + uvarintLen(uint64(e.Off-prev))
		prev = e.Off
	}
	parts.Zones = uvarintLen(uint64(len(m.Blocks)))
	for i := range m.Blocks {
		blk := &m.Blocks[i]
		parts.Bloom += uvarintLen(uint64(blk.bloom.k)) + str(blk.bloom.bits)
		b := binary.AppendVarint(binary.AppendVarint(nil, blk.MinWriteTS), blk.MaxWriteTS)
		parts.Zones += str(blk.MaxKey) + len(b) + uvarintLen(uint64(blk.Rows)) + uvarintLen(uint64(len(blk.Zones)))
		for _, z := range blk.Zones {
			parts.Zones += uvarintLen(uint64(localOf(seg.colIDs, z.ID))) + str(z.MinVal) + str(z.MaxVal) +
				uvarintLen(uint64(z.Cells)) + uvarintLen(uint64(z.NumCells))
			if z.NumCells > 0 {
				parts.Zones += 16
			}
		}
	}
	parts.Fold = len(appendFoldSection(nil, m.Blocks, seg.fold))
	if slices.ContainsFunc(seg.fold, func(f blockFold) bool { return f.group != nil }) {
		parts.Groups = len(appendGroupSection(nil, seg.fold))
		parts.Dir += uvarintLen(tagGroups) + uvarintLen(uint64(parts.Groups))
	}
	parts.Refs = uvarintLen(uint64(len(m.ColNames)))
	for _, name := range m.ColNames {
		parts.Refs += entry(name)
	}
	codecRefs := 0
	for _, d := range m.Dicts {
		for _, v := range d.vals {
			codecRefs += entry(v)
		}
	}
	for _, t := range m.Templates {
		for _, c := range t.Consts {
			codecRefs += entry(c)
		}
	}
	parts.Refs += codecRefs
	codec := len(appendCodecSection(nil, m, &strTable{refs: ref}))
	parts.Codec = codec - codecRefs
	parts.Dir += uvarintLen(tagFold) + uvarintLen(uint64(parts.Fold)) + uvarintLen(tagCodec) + uvarintLen(uint64(codec))
	b := binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(nil, m.MinTS), m.MaxTS), m.MaxWriteTS)
	parts.Meta = str(m.Table) + str(m.Partition) + uvarintLen(m.Seq) + uvarintLen(uint64(m.Rows)) + str(m.MaxKey) +
		len(b) + uvarintLen(uint64(m.DataLen)) + 4
	if footer := int(seg.size - trailerLen - seg.footOff); parts.Footer() != footer {
		return fmt.Errorf("the parts take %d bytes of a %d-byte footer", parts.Footer(), footer)
	}
	fp.Bloom += parts.Bloom
	fp.Zones += parts.Zones
	fp.Index += parts.Index
	fp.Leaves += parts.Leaves
	fp.Fold += parts.Fold
	fp.Groups += parts.Groups
	fp.Dir += parts.Dir
	fp.Refs += parts.Refs
	fp.Codec += parts.Codec
	fp.Meta += parts.Meta
	return nil
}

// localOf returns the name-table index of dictionary ID id.
func localOf(colIDs []uint32, id uint32) int {
	for i, c := range colIDs {
		if c == id {
			return i
		}
	}
	return -1
}

// TestFooterFootprint holds the footers of the hostile corpus, flushed as
// one round file, to a budget per part — so a later change cannot regrow a
// footer unnoticed — and the file's string table to less than the
// per-section tables of names, dictionary values and template constants it
// replaces.
func TestFooterFootprint(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var parts []FlushPart
	for _, hs := range hostileSegs() {
		parts = append(parts, FlushPart{"hostile", hs.name, hs.rows})
	}
	if err := s.FlushRound(parts); err != nil {
		t.Fatal(err)
	}
	fp, err := FooterFootprint(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(fp)
	CheckFootprint(t, fp, FootprintBudget{
		BloomPerBlock: 100, ZonesPerBlock: 75, IndexPerBlock: 30, FoldPerBlock: 4, GroupsPerBlock: 1,
		DirPerSection: 6, RefsPerSection: 180, CodecPerSection: 16, MetaPerSection: 64,
	})
}

// FootprintBudget bounds each footer part: per block for the parts a
// block has one of, per section for the rest.
type FootprintBudget struct {
	BloomPerBlock, ZonesPerBlock, IndexPerBlock, FoldPerBlock      int
	GroupsPerBlock                                                 int
	DirPerSection, RefsPerSection, CodecPerSection, MetaPerSection int
}

// CheckFootprint holds fp to budget b, and the string tables to less than
// the per-section tables they replace, entry numbers counted.
func CheckFootprint(t *testing.T, fp Footprint, b FootprintBudget) {
	t.Helper()
	if fp.Sections == 0 || fp.Blocks == 0 {
		t.Fatalf("nothing measured: %v", fp)
	}
	for _, c := range []struct {
		part        string
		got, budget int
	}{
		{"bloom", fp.Bloom, b.BloomPerBlock * fp.Blocks},
		{"zones", fp.Zones, b.ZonesPerBlock * fp.Blocks},
		{"index", fp.Index, b.IndexPerBlock * fp.Blocks},
		{"leaves", fp.Leaves, (objstore.HashLen + 1) * fp.Blocks},
		{"fold", fp.Fold, b.FoldPerBlock * fp.Blocks},
		{"groups", fp.Groups, b.GroupsPerBlock * fp.Blocks},
		{"dir", fp.Dir, b.DirPerSection * fp.Sections},
		{"refs", fp.Refs, b.RefsPerSection * fp.Sections},
		{"codec", fp.Codec, b.CodecPerSection * fp.Sections},
		{"meta", fp.Meta, b.MetaPerSection * fp.Sections},
	} {
		if c.got > c.budget {
			t.Errorf("%s takes %d bytes, budget %d: %v", c.part, c.got, c.budget, fp)
		}
	}
	if fp.Table+fp.Refs >= fp.Inline {
		t.Errorf("string tables of %d bytes and %d bytes of entry numbers replace %d bytes of per-section tables", fp.Table, fp.Refs, fp.Inline)
	}
}
