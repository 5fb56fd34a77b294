package topology

import "fmt"

// HardwareSpec describes the per-node hardware of Titan from the paper:
// each node pairs a 16-core AMD Opteron 6274 with 32 GB DDR3 and an NVIDIA
// K20X Kepler GPU with 6 GB GDDR5.
type HardwareSpec struct {
	CPUModel  string
	CPUCores  int
	DRAMBytes int64
	GPUModel  string
	GPUBytes  int64
}

// TitanNodeSpec is the hardware configuration of every Titan compute node.
var TitanNodeSpec = HardwareSpec{
	CPUModel:  "AMD Opteron 6274",
	CPUCores:  16,
	DRAMBytes: 32 << 30,
	GPUModel:  "NVIDIA K20X",
	GPUBytes:  6 << 30,
}

// NodeInfo is one row of the nodeinfos table: the physical position of a
// compute node plus network and routing information (Section II-B). It
// enables spatial correlation and analysis of events.
type NodeInfo struct {
	ID       NodeID
	CName    string
	Loc      Location
	Gemini   int    // index of the Gemini router shared with the pair node
	PairNode NodeID // the node sharing this node's Gemini router
	NIC      string // network interface identifier
	Spec     HardwareSpec
}

// Info returns the NodeInfo record for a node id.
func Info(id NodeID) NodeInfo {
	l := LocationOf(id)
	pair := id + 1
	if l.Node%2 == 1 {
		pair = id - 1
	}
	return NodeInfo{
		ID:       id,
		CName:    l.CName(),
		Loc:      l,
		Gemini:   l.Gemini(),
		PairNode: pair,
		NIC:      fmt.Sprintf("nic%d", l.Gemini()*2+l.Node%2),
		Spec:     TitanNodeSpec,
	}
}
