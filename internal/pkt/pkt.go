// Package pkt defines the network-layer packet model shared by the
// traffic generators, routing agents and the MAC layer.
//
// A Packet is the unit the routing layer reasons about. Control packets
// (RREQ/RREP/RERR/HELLO) carry a typed body; data packets carry only
// bookkeeping (flow, sequence, creation time) plus a byte size — payload
// contents are never materialised, as is standard for packet-level
// simulation. Packets are built and copied only through a Pool's
// constructors and Clone; a nil *Pool allocates and keeps nothing.
package pkt

import (
	"fmt"

	"clnlr/internal/des"
)

// NodeID identifies a mesh router. IDs are dense indexes assigned by the
// topology builder, which lets per-node tables be plain slices.
type NodeID int32

// Broadcast is the link-layer broadcast address.
const Broadcast NodeID = -1

func (id NodeID) String() string {
	if id == Broadcast {
		return "bcast"
	}
	return fmt.Sprintf("n%d", int32(id))
}

// Kind discriminates packet types.
type Kind uint8

const (
	// Data is an application payload packet.
	Data Kind = iota
	// RREQ is an AODV-style route request (flooded).
	RREQ
	// RREP is a route reply (unicast back along the reverse path).
	RREP
	// RERR is a route error notification.
	RERR
	// Hello is a periodic neighbourhood beacon; CLNLR piggybacks load
	// information on it.
	Hello
)

func (k Kind) String() string {
	switch k {
	case Data:
		return "DATA"
	case RREQ:
		return "RREQ"
	case RREP:
		return "RREP"
	case RERR:
		return "RERR"
	case Hello:
		return "HELLO"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsControl reports whether the kind is routing control traffic (everything
// except Data); used for normalized-overhead accounting.
func (k Kind) IsControl() bool { return k != Data }

// Header sizes in bytes, chosen to match the classic ns-2 AODV/UDP stack so
// that airtime ratios between control and data packets are realistic.
const (
	IPHeaderBytes    = 20
	UDPHeaderBytes   = 8
	RREQBytes        = 48 // AODV RREQ (24) + IP header + CLNLR cost field
	RREPBytes        = 44
	RERRBaseBytes    = 32 // plus RERRPerDestBytes per unreachable destination
	RERRPerDestBytes = 8
	HelloBaseBytes   = 36 // plus HelloPerNbrBytes per piggybacked neighbour load
	HelloPerNbrBytes = 6
)

// Packet is one network-layer packet. Exactly one of the body pointers is
// non-nil for control kinds; all are nil for Data.
type Packet struct {
	Kind Kind
	// lease is the stamp of the audited Pool arming that lent the packet
	// and has not had it back (0 otherwise); see Pool.SetAudit. It fills
	// Kind's padding, so it costs no space.
	lease uint32
	// UID is unique per simulation run (assigned by the allocator in the
	// node stack); it identifies a packet across hops for tracing.
	UID uint64
	// Src and Dst are the network-layer endpoints (not the per-hop MAC
	// addresses; those live in the MAC frame).
	Src, Dst NodeID
	// TTL is decremented per hop; packets with TTL 0 are dropped.
	TTL int
	// Bytes is the total network-layer size used for airtime computation.
	Bytes int
	// CreatedAt is the instant the packet entered the network layer at its
	// origin; end-to-end delay = delivery time − CreatedAt.
	CreatedAt des.Time

	// Data-packet bookkeeping.
	FlowID int
	Seq    int

	RREQ  *RREQBody
	RREP  *RREPBody
	RERR  *RERRBody
	Hello *HelloBody
}

// RREQBody is the route-request payload. CLNLR extends classic AODV with
// the accumulated Cost field.
type RREQBody struct {
	// ID disambiguates discovery rounds: (Origin, ID) identifies one
	// flood, used by the duplicate cache.
	ID uint32
	// Origin is the node searching for a route, OriginSeq its sequence
	// number at flood time.
	Origin    NodeID
	OriginSeq uint32
	// Target is the sought destination; TargetSeq the last sequence
	// number the origin knew for it (0 + Unknown flag if none).
	Target         NodeID
	TargetSeq      uint32
	TargetSeqKnown bool
	// HopCount is incremented at each rebroadcast.
	HopCount int
	// Cost is the CLNLR accumulated path cost Σ(1+β·NL). Plain AODV
	// leaves it at HopCount semantics (each hop adds 1).
	Cost float64
	// Attempt is 0 for the origin's first flood and increments per retry.
	// Probabilistic schemes use it to escalate retries toward
	// deterministic flooding so suppression can never strand a source.
	Attempt uint8
}

// RREPBody is the route-reply payload, unicast hop-by-hop from the replier
// back to the RREQ origin.
type RREPBody struct {
	// Origin is the RREQ originator (where this RREP is heading).
	Origin NodeID
	// Target is the destination the route leads to.
	Target    NodeID
	TargetSeq uint32
	HopCount  int
	Cost      float64
	// Lifetime is how long the installed route stays valid.
	Lifetime des.Time
}

// UnreachableDest names one destination lost when a link broke.
type UnreachableDest struct {
	Node NodeID
	Seq  uint32
}

// RERRBody lists destinations that became unreachable at the sender.
type RERRBody struct {
	Unreachable []UnreachableDest
}

// NeighborLoad carries one neighbour's smoothed local load in a HELLO.
type NeighborLoad struct {
	ID   NodeID
	Load float64
}

// HelloBody is the periodic beacon. Load is the sender's own local load
// (cross-layer MAC measurement); NbrLoads optionally relays the sender's
// 1-hop table so receivers can build a 2-hop view. A nil NbrLoads is a
// one-hop beacon, an empty one a two-hop beacon with no fresh neighbours.
type HelloBody struct {
	Load     float64
	NbrLoads []NeighborLoad
	// spare is the table storage a pooled body keeps while it carries a
	// one-hop beacon, for the next two-hop beacon built on it. No
	// receiver reads it.
	spare []NeighborLoad
}

// String renders a compact trace representation.
func (p *Packet) String() string {
	switch p.Kind {
	case RREQ:
		return fmt.Sprintf("RREQ{origin=%v id=%d target=%v hops=%d cost=%.2f}",
			p.RREQ.Origin, p.RREQ.ID, p.RREQ.Target, p.RREQ.HopCount, p.RREQ.Cost)
	case RREP:
		return fmt.Sprintf("RREP{origin=%v target=%v hops=%d cost=%.2f}",
			p.RREP.Origin, p.RREP.Target, p.RREP.HopCount, p.RREP.Cost)
	case RERR:
		return fmt.Sprintf("RERR{n=%d}", len(p.RERR.Unreachable))
	case Hello:
		return fmt.Sprintf("HELLO{load=%.2f nbrs=%d}", p.Hello.Load, len(p.Hello.NbrLoads))
	default:
		return fmt.Sprintf("DATA{%v->%v flow=%d seq=%d}", p.Src, p.Dst, p.FlowID, p.Seq)
	}
}

// SeqNewer reports whether sequence number a is fresher than b under
// AODV's circular 32-bit comparison (RFC 3561 §6.1), which is robust to
// wraparound.
func SeqNewer(a, b uint32) bool {
	return int32(a-b) > 0
}
