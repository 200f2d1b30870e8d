// Package noc models the M-Machine's interconnection network: a
// bidirectional 3-D mesh with dimension-order routing and two message
// priorities — priority 0 for user requests and priority 1 for system-level
// replies, "thus avoiding deadlock" (Sections 2 and 4.1).
//
// The model is message-granular store-and-forward: each message advances
// one hop per cycle per free link, with separate virtual channels per
// priority so replies never wait behind requests. The real router is a
// wormhole design; the store-and-forward abstraction preserves the latency
// shape (per-hop cost plus injection/delivery overhead, calibrated to the
// paper's 5-cycle neighbour delivery) and the priority separation, which is
// what the paper's experiments exercise.
package noc

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/isa"
)

// NumPriorities is the number of network priorities (requests and replies).
const NumPriorities = 2

// NoEvent is the NextEvent sentinel meaning "this component will never act
// again without external input" (see DESIGN.md, "The NextEvent contract").
const NoEvent = int64(math.MaxInt64)

// Coord is a node position in the 3-D mesh.
type Coord struct{ X, Y, Z int }

func (c Coord) String() string { return fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.Z) }

// Message is one network message: the hardware-prepended destination and
// dispatch instruction pointer followed by the body composed in general
// registers (Section 4.1, "Message Injection").
type Message struct {
	Pri      int
	Src, Dst Coord
	DIP      uint64     // dispatch instruction pointer
	DstAddr  uint64     // the virtual address the message was sent to
	Body     []isa.Word // body words (tag bits preserved)
	Seq      uint64     // injection sequence, for deterministic ordering

	// Hardware acknowledgement fields for the return-to-sender throttling
	// protocol (Section 4.1): when a message reaches its destination "a
	// reply is sent indicating whether the destination was able to handle
	// the message". Acks travel at priority 1 and are consumed by the
	// network output hardware, never by software.
	HWAck bool
	AckOK bool     // destination consumed the message
	Orig  *Message // the refused request itself, as it arrived, when AckOK is false

	InjectedAt  int64 // cycle the SEND issued
	DeliveredAt int64 // cycle the message reached the destination queue
	Hops        int
}

// Len returns the total message length in words as the hardware counts it:
// DIP + destination address + body.
func (m *Message) Len() int { return 2 + len(m.Body) }

// Config carries network timing, calibrated so that a neighbour-to-neighbour
// delivery costs 5 cycles (Section 4.2, step 4: "Message delivered to remote
// node (5 cycles)").
type Config struct {
	InjectLat  int64 // network output interface: SEND issue to first hop
	HopLat     int64 // per-hop router traversal
	DeliverLat int64 // network input interface: last hop to queue visible
}

// DefaultConfig returns the calibrated timing.
func DefaultConfig() Config { return Config{InjectLat: 2, HopLat: 1, DeliverLat: 2} }

type inflight struct {
	msg     *Message
	at      Coord // current node
	readyAt int64 // cycle the next hop may begin
}

// msgQueue is an allocation-free FIFO of delivered messages: Pop advances a
// head index instead of re-slicing, and the backing array is reset for reuse
// whenever the queue drains, so steady-state traffic recycles one buffer.
type msgQueue struct {
	buf  []*Message
	head int
}

func (q *msgQueue) push(m *Message) { q.buf = append(q.buf, m) }

func (q *msgQueue) pop() *Message {
	m := q.buf[q.head]
	q.buf[q.head] = nil // release for GC
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return m
}

func (q *msgQueue) len() int { return len(q.buf) - q.head }

// Network is the 3-D mesh interconnect shared by all nodes.
type Network struct {
	cfg  Config `snap:"derived,fixed at construction; decode validates against it"`
	dims Coord  `snap:"derived,fixed at construction; decode validates against it"`
	// flight holds in-flight messages, one list per priority. Injection
	// appends, so each list stays sorted by injection sequence; Step
	// compacts in place, preserving that order.
	flight [NumPriorities][]inflight
	seq    uint64
	// linkBusy enforces one message per link per priority per cycle. It is
	// a flat array indexed by linkIndex (node x dimension x direction x
	// priority) holding the cycle through which the link is granted; stale
	// entries are never consulted, so no per-cycle clearing is needed.
	linkBusy []int64 `snap:"derived,link grants replayed by the first post-restore Step"`
	// arrivals holds delivered messages per node per priority until the
	// node's network input interface consumes them, indexed by node id.
	arrivals [][NumPriorities]msgQueue
	// arrivalCount totals undelivered-to-chip messages across all nodes.
	// It is atomic because Pop runs concurrently under the parallel chip
	// engine (each chip pops only its own node's queues, so the queues
	// themselves are unshared; this counter is the one cross-node write).
	arrivalCount atomic.Int64 `snap:"derived,recomputed from decoded arrivals"`
	// arrived lists the nodes with delivered-but-unconsumed messages, each
	// once (arrivedMark is its membership bitmap): the set every engine
	// wakes, and the dist coordinator ships from, each cycle. A delivery
	// adds its node (arrive); drained nodes are dropped by ArrivalNodes,
	// not by Pop — chips pop concurrently under the pooled chip phase, and
	// each may touch only its own node's queues.
	arrived     []int  `snap:"derived,rebuilt from decoded arrivals"`
	arrivedMark []bool `snap:"derived,rebuilt from decoded arrivals"`

	// deliveredTo lists the nodes that received at least one delivery
	// during the most recent Step, deduplicated via deliveredMark (per-node
	// cycle of the last recorded delivery), for DeliveredNodes. The
	// engines wake chips from the arrival set (ArrivalNodes) instead.
	deliveredTo   []int   `snap:"derived,per-Step delivery set, rebuilt each Step"`
	deliveredMark []int64 `snap:"derived,per-Step delivery set, rebuilt each Step"`

	// nextWake caches the earliest readyAt among in-flight messages,
	// recomputed by Step and lowered by Inject (the NextEvent source).
	nextWake int64 `snap:"derived,recomputed from decoded in-flight messages"`

	// Stats.
	Injected, Delivered uint64
	TotalHops           uint64
}

// New creates a mesh of the given dimensions.
func New(dims Coord, cfg Config) *Network {
	if dims.X < 1 || dims.Y < 1 || dims.Z < 1 {
		panic(fmt.Sprintf("noc: bad mesh dimensions %v", dims))
	}
	nodes := dims.X * dims.Y * dims.Z
	n := &Network{
		cfg:           cfg,
		dims:          dims,
		linkBusy:      make([]int64, nodes*3*2*NumPriorities),
		arrivals:      make([][NumPriorities]msgQueue, nodes),
		arrived:       make([]int, 0, nodes),
		arrivedMark:   make([]bool, nodes),
		nextWake:      NoEvent,
		deliveredMark: make([]int64, nodes),
	}
	for i := range n.deliveredMark {
		n.deliveredMark[i] = -1 // cycles are never negative
	}
	return n
}

// linkIndex flattens (node, dimension, direction, priority) into the
// linkBusy array.
func (n *Network) linkIndex(from Coord, dim int, neg bool, pri int) int {
	d := 0
	if neg {
		d = 1
	}
	return ((n.Index(from)*3+dim)*2+d)*NumPriorities + pri
}

// Dims returns the mesh dimensions.
func (n *Network) Dims() Coord { return n.dims }

// NumNodes returns the total node count.
func (n *Network) NumNodes() int { return n.dims.X * n.dims.Y * n.dims.Z }

// Index linearizes a coordinate (X-major, matching the GTLB's ordering).
func (n *Network) Index(c Coord) int {
	return c.X + n.dims.X*(c.Y+n.dims.Y*c.Z)
}

// CoordOf inverts Index.
func (n *Network) CoordOf(i int) Coord {
	return Coord{
		X: i % n.dims.X,
		Y: i / n.dims.X % n.dims.Y,
		Z: i / (n.dims.X * n.dims.Y),
	}
}

// InMesh reports whether c is a valid node coordinate.
func (n *Network) InMesh(c Coord) bool {
	return c.X >= 0 && c.X < n.dims.X &&
		c.Y >= 0 && c.Y < n.dims.Y &&
		c.Z >= 0 && c.Z < n.dims.Z
}

// Inject launches a message at cycle now. The caller (the SEND datapath)
// has already performed protection checks and throttling.
func (n *Network) Inject(now int64, m *Message) {
	if !n.InMesh(m.Dst) {
		panic(fmt.Sprintf("noc: destination %v outside mesh %v", m.Dst, n.dims))
	}
	if m.Pri < 0 || m.Pri >= NumPriorities {
		panic(fmt.Sprintf("noc: bad priority %d", m.Pri))
	}
	m.Seq = n.seq
	n.seq++
	m.InjectedAt = now
	n.Injected++
	ready := now + n.cfg.InjectLat
	n.flight[m.Pri] = append(n.flight[m.Pri], inflight{
		msg:     m,
		at:      m.Src,
		readyAt: ready,
	})
	if ready < n.nextWake {
		n.nextWake = ready
	}
}

// Step advances the network by one cycle; now is the current cycle. Higher
// priority (replies) wins link arbitration via its separate virtual channel;
// within a priority, older messages win. The per-priority flight lists are
// already in injection-sequence order, so no sorting is needed; survivors
// are compacted in place and no allocation happens on the steady-state path.
func (n *Network) Step(now int64) {
	wake := NoEvent
	n.deliveredTo = n.deliveredTo[:0]
	for pri := NumPriorities - 1; pri >= 0; pri-- {
		flights := n.flight[pri]
		remaining := flights[:0]
		for _, f := range flights {
			if f.readyAt > now {
				remaining = append(remaining, f)
				if f.readyAt < wake {
					wake = f.readyAt
				}
				continue
			}
			if f.at == f.msg.Dst {
				// Delivery into the node's hardware message queue.
				node := n.Index(f.at)
				n.arrive(node, pri, f.msg)
				if n.deliveredMark[node] != now {
					n.deliveredMark[node] = now
					n.deliveredTo = append(n.deliveredTo, node)
				}
				f.msg.DeliveredAt = now
				n.Delivered++
				continue
			}
			dim, neg := nextHop(f.at, f.msg.Dst)
			li := n.linkIndex(f.at, dim, neg, pri)
			if n.linkBusy[li] == now+1 {
				// Link already granted this cycle: wait.
				f.readyAt = now + 1
				remaining = append(remaining, f)
				wake = now + 1
				continue
			}
			n.linkBusy[li] = now + 1
			f.at = move(f.at, dim, neg)
			f.msg.Hops++
			n.TotalHops++
			if f.at == f.msg.Dst {
				f.readyAt = now + n.cfg.HopLat + n.cfg.DeliverLat
			} else {
				f.readyAt = now + n.cfg.HopLat
			}
			remaining = append(remaining, f)
			if f.readyAt < wake {
				wake = f.readyAt
			}
		}
		// Clear the moved-from tail so delivered messages can be collected.
		for i := len(remaining); i < len(flights); i++ {
			flights[i] = inflight{}
		}
		n.flight[pri] = remaining
	}
	n.nextWake = wake
}

// NextEvent reports the earliest cycle >= now at which the network's state
// can change on its own: the soonest in-flight readiness, or now while
// delivered messages await consumption by a node. NoEvent means the network
// is empty and will not act until the next Inject.
func (n *Network) NextEvent(now int64) int64 {
	if n.arrivalCount.Load() > 0 {
		return now
	}
	if n.nextWake < now {
		return now
	}
	return n.nextWake
}

// Lookahead is the fewest cycles from a message's injection to the first
// chip phase that can see it: Step leaves a message injected at cycle c
// alone until c+InjectLat (a self-send is delivered by Step(c+InjectLat)),
// and a node's network input interface pops a delivery one cycle after the
// Step that made it. So the chip phases of cycles c … c+Lookahead()-1 cannot
// depend on anything injected at or after c — the window a distributed
// transport may run between two synchronizations.
func (n *Network) Lookahead() int64 { return n.cfg.InjectLat + 1 }

// NeedsStep reports whether Step(now) would change any network state, so
// the engine can skip the walk entirely on idle cycles.
func (n *Network) NeedsStep(now int64) bool {
	return (len(n.flight[0]) > 0 || len(n.flight[1]) > 0) && n.nextWake <= now
}

// nextHop applies dimension-order (X, then Y, then Z) routing.
func nextHop(at, dst Coord) (dim int, neg bool) {
	switch {
	case at.X != dst.X:
		return 0, dst.X < at.X
	case at.Y != dst.Y:
		return 1, dst.Y < at.Y
	default:
		return 2, dst.Z < at.Z
	}
}

func move(c Coord, dim int, neg bool) Coord {
	d := 1
	if neg {
		d = -1
	}
	switch dim {
	case 0:
		c.X += d
	case 1:
		c.Y += d
	default:
		c.Z += d
	}
	return c
}

// arrive puts m into node's arrival queue at priority pri and the node
// into the arrival set.
func (n *Network) arrive(node, pri int, m *Message) {
	n.arrivals[node][pri].push(m)
	n.arrivalCount.Add(1)
	if !n.arrivedMark[node] {
		n.arrivedMark[node] = true
		n.arrived = append(n.arrived, node)
	}
}

// ArrivalNodes returns the nodes with delivered-but-unconsumed messages,
// each once, in order of first delivery, after dropping the ones that
// drained since the last call: O(nodes that had arrivals), not O(nodes).
// The slice is valid until the next Step, Deliver or ArrivalNodes;
// callers must not retain it.
func (n *Network) ArrivalNodes() []int {
	keep := n.arrived[:0]
	for _, i := range n.arrived {
		if n.HasArrivals(i) {
			keep = append(keep, i)
		} else {
			n.arrivedMark[i] = false
		}
	}
	n.arrived = keep
	return keep
}

// Pop removes and returns the oldest delivered message of the given
// priority at node c, or nil if none is waiting.
func (n *Network) Pop(c Coord, pri int) *Message {
	q := &n.arrivals[n.Index(c)][pri]
	if q.len() == 0 {
		return nil
	}
	n.arrivalCount.Add(-1)
	return q.pop()
}

// PendingAt reports the number of delivered-but-unconsumed messages at c.
func (n *Network) PendingAt(c Coord, pri int) int {
	return n.arrivals[n.Index(c)][pri].len()
}

// ArrivalsAt returns a view of node i's delivered-but-unconsumed messages
// at priority pri, oldest first. The slice aliases the live queue: it is
// valid only until the next Pop/Deliver/Step and must not be mutated or
// retained. The distributed coordinator uses it to ship copies of
// deliveries to shard workers without consuming the authoritative queue.
func (n *Network) ArrivalsAt(i, pri int) []*Message {
	q := &n.arrivals[i][pri]
	return q.buf[q.head:]
}

// DropArrivals consumes the k oldest delivered messages at (i, pri),
// discarding them. The distributed coordinator calls it when a shard
// worker confirms its chip consumed k messages, keeping the authoritative
// arrival queues exactly equal to the shard-local ones at every sync
// point — which is what makes hub-side Quiescent/NextEvent and checkpoint
// snapshots bit-identical to an in-process run.
func (n *Network) DropArrivals(i, pri, k int) {
	q := &n.arrivals[i][pri]
	if k > q.len() {
		panic(fmt.Sprintf("noc: drop %d arrivals at node %d pri %d, only %d pending", k, i, pri, q.len()))
	}
	for j := 0; j < k; j++ {
		q.pop()
	}
	n.arrivalCount.Add(int64(-k))
}

// Deliver places m directly into node i's arrival queue at priority pri,
// bypassing routing. This is the distributed engine's shard-side mailbox
// primitive: the coordinator's authoritative network routed and delivered
// the message, and the shard replays the delivery into its local replica
// so the destination chip consumes it exactly as it would in-process.
// Queue order is the shipment order, which the coordinator produces in
// per-(node, priority) FIFO order — the only order chips can observe.
func (n *Network) Deliver(i int, pri int, m *Message) { n.arrive(i, pri, m) }

// ClearTraffic drops all in-flight and delivered-but-unconsumed messages.
// A distributed shard calls it after restoring a full snapshot: the
// authoritative copy of that traffic lives in the coordinator's network,
// and the local replica acts only as a mailbox fed by Deliver — leaving
// the snapshot's copies in place would double-deliver on resume. Sequence
// numbers and statistics are untouched (the coordinator owns those too;
// a shard replica's are never consulted or exported).
func (n *Network) ClearTraffic() {
	for pri := range n.flight {
		n.flight[pri] = n.flight[pri][:0]
	}
	for i := range n.arrivals {
		for pri := range n.arrivals[i] {
			n.arrivals[i][pri] = msgQueue{}
		}
	}
	n.arrivalCount.Store(0)
	n.arrived = n.arrived[:0]
	clear(n.arrivedMark)
	n.deliveredTo = nil
	n.nextWake = NoEvent
}

// DeliveredNodes returns the nodes that received at least one delivery
// during the most recent Step, without duplicates, in delivery order. The
// slice is valid until the next Step; callers must not retain it.
func (n *Network) DeliveredNodes() []int { return n.deliveredTo }

// HasArrivals reports whether node i has delivered-but-unconsumed messages
// at either priority.
func (n *Network) HasArrivals(i int) bool {
	return n.arrivals[i][0].len() > 0 || n.arrivals[i][1].len() > 0
}

// InFlight reports the number of messages still travelling.
func (n *Network) InFlight() int { return len(n.flight[0]) + len(n.flight[1]) }

// Quiescent reports whether no messages are in flight or waiting anywhere.
func (n *Network) Quiescent() bool {
	return n.InFlight() == 0 && n.arrivalCount.Load() == 0
}

// Distance returns the Manhattan hop count between two nodes.
func Distance(a, b Coord) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y) + abs(a.Z-b.Z)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
