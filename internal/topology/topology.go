// Package topology models the physical layout of the Titan supercomputer
// as described in Section II-B of the paper: 200 cabinets arranged on the
// machine-room floor in a grid of 25 rows and 8 columns, each cabinet
// holding 3 cages, each cage holding 8 blades (slots), and each blade
// holding 4 compute nodes. A Cray Gemini router is shared between each
// pair of nodes on a blade.
//
// The package provides the canonical node addressing used throughout the
// framework (the Cray "cname" format, e.g. c12-3c1s4n2), the NodeInfo
// records stored in the nodeinfos table, and helpers for spatial analysis
// such as heat-map binning per cabinet, blade, or node.
package topology

import (
	"fmt"
	"math"
	"strconv"
)

// Titan dimensions from the paper.
const (
	Rows            = 25 // cabinet rows on the floor
	Cols            = 8  // cabinet columns on the floor
	Cabinets        = Rows * Cols
	CagesPerCabinet = 3
	BladesPerCage   = 8
	NodesPerBlade   = 4
	BladesPerCab    = CagesPerCabinet * BladesPerCage
	NodesPerCabinet = CagesPerCabinet * BladesPerCage * NodesPerBlade
	TotalNodes      = Cabinets * NodesPerCabinet
	// GeminiPerBlade routers per blade; one router is shared by a pair of
	// nodes, so a 4-node blade carries 2 Gemini routers.
	GeminiPerBlade = NodesPerBlade / 2
)

// NodeID is a dense integer identifier in [0, TotalNodes).
type NodeID int

// Location identifies a compute node by its physical coordinates.
type Location struct {
	Row  int // cabinet row on the floor, 0..Rows-1
	Col  int // cabinet column on the floor, 0..Cols-1
	Cage int // cage (chassis) within the cabinet, 0..CagesPerCabinet-1
	Slot int // blade slot within the cage, 0..BladesPerCage-1
	Node int // node within the blade, 0..NodesPerBlade-1
}

// Cabinet returns the dense cabinet index in [0, Cabinets).
func (l Location) Cabinet() int { return l.Row*Cols + l.Col }

// Blade returns the dense blade index in [0, Cabinets*BladesPerCab).
func (l Location) Blade() int {
	return l.Cabinet()*BladesPerCab + l.Cage*BladesPerCage + l.Slot
}

// ID returns the dense node identifier for the location.
func (l Location) ID() NodeID {
	return NodeID(l.Blade()*NodesPerBlade + l.Node)
}

// Gemini returns the index of the Gemini router serving this node. Routers
// are shared between node pairs (n0,n1) and (n2,n3) of a blade.
func (l Location) Gemini() int {
	return l.Blade()*GeminiPerBlade + l.Node/2
}

// CName renders the location in Cray cname notation: cCOL-ROWcCAGEsSLOTnNODE.
// Example: c3-0c2s7n1 is column 3, row 0, cage 2, slot 7, node 1.
func (l Location) CName() string {
	return fmt.Sprintf("c%d-%dc%ds%dn%d", l.Col, l.Row, l.Cage, l.Slot, l.Node)
}

// String implements fmt.Stringer.
func (l Location) String() string { return l.CName() }

// Valid reports whether every coordinate is within Titan's bounds.
func (l Location) Valid() bool {
	return l.Row >= 0 && l.Row < Rows &&
		l.Col >= 0 && l.Col < Cols &&
		l.Cage >= 0 && l.Cage < CagesPerCabinet &&
		l.Slot >= 0 && l.Slot < BladesPerCage &&
		l.Node >= 0 && l.Node < NodesPerBlade
}

// LocationOf converts a dense node identifier back to physical coordinates.
// It panics if id is out of range; use Valid / bounds checks upstream.
func LocationOf(id NodeID) Location {
	if id < 0 || int(id) >= TotalNodes {
		panic(fmt.Sprintf("topology: node id %d out of range [0,%d)", id, TotalNodes))
	}
	n := int(id)
	var l Location
	l.Node = n % NodesPerBlade
	n /= NodesPerBlade
	l.Slot = n % BladesPerCage
	n /= BladesPerCage
	l.Cage = n % CagesPerCabinet
	n /= CagesPerCabinet
	l.Col = n % Cols
	l.Row = n / Cols
	return l
}

// ParseCName parses Cray cname notation (cCOL-ROWcCAGEsSLOTnNODE) into a
// Location. Partial cnames addressing a blade (no nN suffix), cage, or
// cabinet are rejected; use ParseComponent for those.
func ParseCName(s string) (Location, error) {
	c, err := ParseComponent(s)
	if err != nil {
		return Location{}, err
	}
	if c.Level != LevelNode {
		return Location{}, fmt.Errorf("topology: %q addresses a %s, not a node", s, c.Level)
	}
	return c.Loc, nil
}

// Level identifies the granularity of a physical component address.
type Level int

// Component granularities, coarse to fine.
const (
	LevelCabinet Level = iota
	LevelCage
	LevelBlade
	LevelNode
)

// String implements fmt.Stringer.
func (lv Level) String() string {
	switch lv {
	case LevelCabinet:
		return "cabinet"
	case LevelCage:
		return "cage"
	case LevelBlade:
		return "blade"
	case LevelNode:
		return "node"
	}
	return fmt.Sprintf("Level(%d)", int(lv))
}

// Component is a physical component address at any granularity. Coordinates
// below the component's Level are zero.
type Component struct {
	Level Level
	Loc   Location
}

// String renders the component in cname notation truncated to its level.
func (c Component) String() string {
	b := make([]byte, 0, 16)
	b = strconv.AppendInt(append(b, 'c'), int64(c.Loc.Col), 10)
	b = strconv.AppendInt(append(b, '-'), int64(c.Loc.Row), 10)
	if c.Level >= LevelCage {
		b = strconv.AppendInt(append(b, 'c'), int64(c.Loc.Cage), 10)
	}
	if c.Level >= LevelBlade {
		b = strconv.AppendInt(append(b, 's'), int64(c.Loc.Slot), 10)
	}
	if c.Level >= LevelNode {
		b = strconv.AppendInt(append(b, 'n'), int64(c.Loc.Node), 10)
	}
	return string(b)
}

// ParseComponent parses a full or partial cname: c3-0, c3-0c2, c3-0c2s7,
// c3-0c2s7n1. The column may carry a '+' sign. It allocates only for an
// error.
func ParseComponent(s string) (Component, error) {
	if len(s) < 2 || s[0] != 'c' {
		return Component{}, invalidCName(s)
	}
	i := 1
	if s[i] == '+' {
		i++
	}
	col, i, ok := parseDigits(s, i)
	if !ok || i == len(s) || s[i] != '-' {
		return Component{}, invalidCName(s)
	}
	row, i, ok := parseDigits(s, i+1)
	if !ok {
		return Component{}, invalidCName(s)
	}
	c := Component{Level: LevelCabinet, Loc: Location{Row: row, Col: col}}
	// Cage, slot and node follow in order, each a letter and digits; the
	// name may end before any of them.
	for _, sub := range [...]struct {
		prefix byte
		level  Level
		coord  *int
	}{{'c', LevelCage, &c.Loc.Cage}, {'s', LevelBlade, &c.Loc.Slot}, {'n', LevelNode, &c.Loc.Node}} {
		if i == len(s) {
			break
		}
		if s[i] != sub.prefix {
			return Component{}, invalidCName(s)
		}
		if *sub.coord, i, ok = parseDigits(s, i+1); !ok {
			return Component{}, invalidCName(s)
		}
		c.Level = sub.level
	}
	if i < len(s) {
		return Component{}, fmt.Errorf("topology: invalid cname %q: trailing %q", s, s[i:])
	}
	if !c.Loc.Valid() {
		return Component{}, fmt.Errorf("topology: cname %q out of Titan bounds", s)
	}
	return c, nil
}

func invalidCName(s string) error { return fmt.Errorf("topology: invalid cname %q", s) }

// parseDigits reads the decimal number of the digits of s from i on: its
// value and where the digits end. ok is false when there are none or the
// value overflows an int, where strconv.Atoi fails.
func parseDigits(s string, i int) (v, end int, ok bool) {
	start := i
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		d := int(s[i] - '0')
		if v > (math.MaxInt-d)/10 {
			return 0, i, false
		}
		v = v*10 + d
	}
	return v, i, i > start
}

// Contains reports whether node location l falls within component c.
func (c Component) Contains(l Location) bool {
	if c.Loc.Row != l.Row || c.Loc.Col != l.Col {
		return false
	}
	if c.Level >= LevelCage && c.Loc.Cage != l.Cage {
		return false
	}
	if c.Level >= LevelBlade && c.Loc.Slot != l.Slot {
		return false
	}
	if c.Level >= LevelNode && c.Loc.Node != l.Node {
		return false
	}
	return true
}

// Nodes returns all node IDs contained in the component, in dense order.
func (c Component) Nodes() []NodeID {
	var ids []NodeID
	add := func(l Location) { ids = append(ids, l.ID()) }
	l := c.Loc
	switch c.Level {
	case LevelNode:
		add(l)
	case LevelBlade:
		for n := 0; n < NodesPerBlade; n++ {
			l.Node = n
			add(l)
		}
	case LevelCage:
		for s := 0; s < BladesPerCage; s++ {
			for n := 0; n < NodesPerBlade; n++ {
				l.Slot, l.Node = s, n
				add(l)
			}
		}
	case LevelCabinet:
		for cg := 0; cg < CagesPerCabinet; cg++ {
			for s := 0; s < BladesPerCage; s++ {
				for n := 0; n < NodesPerBlade; n++ {
					l.Cage, l.Slot, l.Node = cg, s, n
					add(l)
				}
			}
		}
	}
	return ids
}

// CabinetAt returns the cabinet component at floor position (row, col).
func CabinetAt(row, col int) Component {
	return Component{Level: LevelCabinet, Loc: Location{Row: row, Col: col}}
}
