// Package netsim is THE discrete-event, packet-level simulator for
// layered multicast congestion control over arbitrary netmodel.Network
// graphs: sim (modified star, exogenous loss), treesim (loss trees) and
// capsim (capacity-coupled star) are facades that compile their configs
// onto this engine and re-map its results, owning no event loop of
// their own.
//
// The engine runs the paper's general network model N = (G, {S_i}, τ, Γ)
// forward in time: every session transmits the Section 4 exponential
// layer scheme from its sender; packets are forwarded down the session's
// multicast tree (the union of its receivers' data-paths) with idealized
// pruning — a packet enters a link iff some subscribed receiver below it
// wants its layer; each link applies a pluggable loss/queue model
// (LinkSpec): exogenous Bernoulli loss, capsim's fluid capacity-coupled
// drop, or a finite droptail queue with service rate, buffer, and
// propagation delay, optionally sharing its capacity with constant
// background cross-traffic (the TCP-over-ABR/UBR setting). Receivers run
// the protocol package's join/leave state machines; sessions may see
// membership churn (ChurnEvent). Losses are observed by every subscribed
// receiver below the dropping link at the drop instant (the paper's
// instant-feedback idealization); successful deliveries arrive after
// queueing and propagation delay when the link model has any.
//
// The measured outputs are per-receiver long-run throughput and the
// paper's Definition 3 redundancy per (link, session): the session's
// packet rate across the link divided by the best goodput among its
// receivers downstream of the link.
//
// # Engine internals
//
// The hot path is allocation-free at steady state and sized for
// hundreds of links times dozens of sessions:
//
//   - Sender transmissions never touch the scheduler: the exponential
//     scheme's periods are dyadic, so each session's due layers at a
//     tick are the contiguous range given by the tick counter's
//     trailing zeros — one integer op per packet instead of a heap
//     round trip. The queue (32-byte events in a preallocated 4-ary
//     heap whose backing array is the event pool) holds only delayed
//     DropTail deliveries, churn, and the signal clock, with
//     same-instant ties broken on a packed (priority, sequence) key.
//   - Each session's multicast tree is renumbered in DFS pre-order and
//     flattened to CSR arrays; every tree edge is split into a 32-byte
//     hot record (admission class, capacity-row index, the entered
//     node's receiver and child blocks — everything the walk reads
//     every crossing, two edges per cache line in DFS order) and a
//     cold record (drop counter, geometric-sampling constant — read
//     only on refills and at result time), with the crossing and
//     loss-gap counters in dense parallel arrays, so a packet hop
//     touches half the cache footprint of the old fused 64-byte
//     record.
//   - Packet delivery is batched: one transmission drains the whole
//     multicast tree in a fused, iterative loop (reusable work stack,
//     tail-descent into the first eligible child), delivering and
//     deciding admission inline. One walk serves every tree, run under
//     a walker naming its RNG stream and level accumulator; the one
//     specialization is forwardLossOnly, which unpartitioned,
//     linger-free sessions whose links are all Perfect/Bernoulli take
//     with the admission switch compiled out.
//   - Bernoulli drops are realized by geometric inter-drop gap counters
//     (one RNG draw per drop, not per crossing — the identical law;
//     links with layer-dependent loss tables fall back to a direct draw
//     per crossing), and the protocol state machines are flattened into
//     parallel arrays with their transitions inlined (mirroring
//     protocol.Receiver exactly; the protocol package's unit tests and
//     the facades' behavioral suites guard the equivalence).
//   - The paper's "maximum joined layer below a link" is maintained
//     incrementally: each node keeps per-level contribution counts in a
//     power-of-two-stride row (single-contribution nodes skip even
//     that), and a receiver level change updates only the O(depth) path
//     to the root, stopping at the first node whose maximum stands.
//     Wide nodes (fan-out > 16, the star-hub pattern) additionally keep
//     their child edges counting-sorted by descending subtree level so
//     forwarding enumerates exactly the children that still want the
//     layer; narrow nodes scan a dense per-edge mirror instead.
//   - Per-link fluid demand for Capacity links is maintained
//     incrementally as subscriptions move (exact for the power-of-two
//     exponential scheme), so admission is O(1); congestion
//     notification uses precomputed per-edge downstream-receiver lists
//     instead of re-walking the dropped subtree.
//
// Determinism contract: a Config's results are a pure function of its
// fields including Seed. All randomness flows from one PCG stream whose
// consumption order is fixed by the engine's total event order (heap
// order, then transmissions session- and layer-ascending, then signals)
// and the deterministic child order within a packet's tree walk, so
// equal configs give bit-identical Results on any platform and any
// replication-worker count.
package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"mlfair/internal/layering"
	"mlfair/internal/netmodel"
	"mlfair/internal/protocol"
)

// MaxLayers bounds SessionConfig.Layers: the protocol package's join
// thresholds 2^(2(M-1)) overflow int64 beyond 32 layers, and the
// engine's dyadic transmit calendar needs the layer-period ratios to
// fit a uint64 tick counter. The paper uses at most 10.
const MaxLayers = 32

// wideFanout is the child count above which a node's edge block is kept
// counting-sorted for output-sensitive enumeration; at or below it, a
// linear scan of the dense edgeSub mirror is cheaper than maintaining
// the ordering.
const wideFanout = 16

// SessionConfig sets one session's protocol parameters.
type SessionConfig struct {
	// Protocol is the join-coordination discipline.
	Protocol protocol.Kind
	// Layers is M, the depth of the exponential layer scheme (1..MaxLayers).
	Layers int
}

// ChurnEvent toggles one receiver's session membership at a given time.
// A joining receiver starts fresh at the base layer; a leaving receiver
// stops receiving, stops counting for pruning, and contributes nothing
// to link demand until it rejoins.
type ChurnEvent struct {
	Time     float64
	Session  int
	Receiver int
	// Join is true for a (re-)join, false for a leave.
	Join bool
}

// Config parameterizes one run of the general engine.
type Config struct {
	// Network supplies the graph, the sessions (senders, receivers,
	// data-paths), and per-link capacities. Each session's data-paths
	// must form a multicast tree rooted at its sender (networks built by
	// routing.BuildNetwork always do); abstract Builder networks and
	// multi-sender sessions are rejected.
	Network *netmodel.Network
	// Links configures each link's loss/queue model, indexed like the
	// graph's links. Nil means every link is Perfect (lossless).
	Links []LinkSpec
	// Sessions configures each session's protocol, indexed like the
	// network's sessions.
	Sessions []SessionConfig
	// Packets is the total transmission budget summed over all senders.
	Packets int
	// SignalPeriod is the Coordinated protocols' base signal period
	// (0 = 1.0); one global signal clock drives all Coordinated sessions.
	SignalPeriod float64
	// Churn lists membership changes, in any order.
	Churn []ChurnEvent
	// Probe turns on streaming observation windows (ProbeConfig): the
	// run is sampled into Result.Probe. Nil means no probing. Probing
	// never changes dynamics: every other Result field is bit-identical
	// with probes on or off.
	Probe *ProbeConfig
	// Stats, when non-nil, receives the run's engine statistics
	// (cumulative atomic counters — see EngineStats). The same sink may
	// be shared by concurrent replications. Stats never change dynamics:
	// every Result field is bit-identical with stats on or off, and the
	// counters are flushed once at the end of the run, not per event.
	Stats *EngineStats
	// Shards selects the event-loop execution mode. 0 (the default) runs
	// one engine over every session: one event loop, one RNG stream —
	// the committed-golden configuration. Any value >= 1 enables session-sharded
	// execution: sessions whose multicast trees share no link (computed
	// by union-find over link sets) run as independent event loops on up
	// to Shards concurrent goroutines, each with its own calendar and a
	// per-group RNG stream derived from Seed, merged deterministically at
	// result time. A group holding one giant session is additionally
	// decomposed below a cut frontier into link-disjoint subtrees that
	// fan out across workers (see subtree.go and CutLinks). The Result
	// is a pure function of the Config alone — every Shards >= 1 yields
	// the identical Result, so the value only tunes parallelism, never
	// output.
	Shards int
	// CutLinks, under Shards >= 1, names the links whose tree edges form
	// the subtree-sharding cut frontier for single-session shard groups
	// (for the planetary topology: the access links below firstAccess).
	// Empty selects an automatic cost-balanced frontier from per-subtree
	// receiver counts. Like Shards itself, CutLinks only shapes the
	// parallel decomposition — every frontier yields the same Result for
	// a given Config; it is ignored at Shards == 0.
	CutLinks []int
	// MemBudget, when positive, caps the engine's planned peak memory in
	// bytes: Run calls PlanMemory first and fails fast — before any
	// large allocation — when the plan exceeds the budget. 0 disables
	// the check.
	MemBudget int64
	// LeaveLatency models slow IGMP-style leave processing (the paper's
	// Section 5 concern): after the highest subscription below a link
	// drops, the link keeps carrying the abandoned layers for this many
	// time units. Lingering crossings consume link bandwidth (they count
	// in LinkStats.Crossed) but deliver nothing, observe no losses, and
	// draw no randomness — so receiver dynamics at equal seeds are
	// identical across latencies, exactly the sim package's historical
	// contract.
	LeaveLatency float64
	// Seed drives all randomness; equal seeds give identical runs.
	Seed uint64
}

// LinkStats is the per-(link, session) measurement.
type LinkStats struct {
	// Link is the graph link index; Session the session index.
	Link, Session int
	// Crossed counts the session's packets that entered the link
	// (consuming bandwidth even when the link itself drops them).
	Crossed int
	// Rate is Crossed over the run duration.
	Rate float64
	// Redundancy is Definition 3 on this link: Rate over the best
	// long-run goodput among the session's receivers downstream (0 when
	// no downstream receiver ever received).
	Redundancy float64
	// DownstreamReceivers is |R_{i,j}|, the session's receiver count on
	// the link.
	DownstreamReceivers int
	// Dropped counts the session's packets this link itself dropped
	// (Crossed includes them: a dropped packet still consumed the link).
	Dropped int
	// FluidRate is the session's time-average fluid demand on the link:
	// the integral of the cumulative scheme rate of the highest
	// subscription level below the link, over the run duration. This is
	// the u_{i,j} the paper's fluid analysis assigns to the session, the
	// quantity the capacity-coupled drop law meters, and what the capsim
	// facade reports as SessionLinkRates.
	FluidRate float64
}

// Result summarizes one run.
type Result struct {
	// ReceiverRates[i][k] is receiver r_{i,k}'s long-run goodput in
	// packets per time unit.
	ReceiverRates [][]float64
	// ReceiverPackets[i][k] is the exact delivered-packet count behind
	// ReceiverRates (the invariant-test currency: deliveries can never
	// exceed the packets that crossed any link on the receiver's path).
	ReceiverPackets [][]int
	// FinalLevels[i][k] is r_{i,k}'s subscription level when the run
	// ended: in [1, Layers] while joined, 0 after a churn departure.
	FinalLevels [][]int
	// MeanLevels[i] is session i's time-average subscription level,
	// averaged across its receivers (receivers departed by churn count
	// level 0 while away) — the sim package's MeanLevel diagnostic on
	// the general engine.
	MeanLevels []float64
	// Links holds per-(link, session) stats for every link crossed by at
	// least one receiver of the session, in link-major order.
	Links []LinkStats
	// Probe holds the run's retained observation windows (nil unless
	// Config.Probe was set).
	Probe *ProbeSeries
	// PacketsSent counts sender transmissions across all sessions.
	PacketsSent int
	// Duration is the simulated time.
	Duration float64
	// Events counts engine events processed — sender transmissions,
	// scheduled-event pops, per-link packet admissions, and receiver
	// deliveries (the denominator of the benchmark suite's events/sec
	// and allocs/event metrics).
	Events int64
}

// LinkRedundancy returns the Definition 3 redundancy of a session on a
// link, or 0 if the session has no receivers across it.
func (r *Result) LinkRedundancy(link, session int) float64 {
	for _, ls := range r.Links {
		if ls.Link == link && ls.Session == session {
			return ls.Redundancy
		}
	}
	return 0
}

// SessionRedundancy returns the session's redundancy on its root link:
// the highest-rate link stats entry touching the session's sender-side
// tree, defined as the link carrying the most session packets. For a
// star or tree this is the link out of the sender.
func (r *Result) SessionRedundancy(session int) float64 {
	best := LinkStats{}
	for _, ls := range r.Links {
		if ls.Session == session && ls.Crossed >= best.Crossed {
			best = ls
		}
	}
	return best.Redundancy
}

func (c *Config) validate() error {
	if c.Network == nil {
		return fmt.Errorf("netsim: nil network")
	}
	if len(c.Sessions) != c.Network.NumSessions() {
		return fmt.Errorf("netsim: %d session configs for %d sessions", len(c.Sessions), c.Network.NumSessions())
	}
	if c.Links != nil && len(c.Links) != c.Network.NumLinks() {
		return fmt.Errorf("netsim: %d link specs for %d links", len(c.Links), c.Network.NumLinks())
	}
	for j, spec := range c.Links {
		if err := spec.validate(j, c.Network.Capacity(j)); err != nil {
			return err
		}
	}
	if c.Packets < 1 {
		return fmt.Errorf("netsim: Packets = %d", c.Packets)
	}
	if c.SignalPeriod < 0 || math.IsInf(c.SignalPeriod, 0) || math.IsNaN(c.SignalPeriod) {
		return fmt.Errorf("netsim: SignalPeriod = %v", c.SignalPeriod)
	}
	if !(c.LeaveLatency >= 0) || math.IsInf(c.LeaveLatency, 0) {
		return fmt.Errorf("netsim: LeaveLatency = %v", c.LeaveLatency)
	}
	if c.Shards < 0 {
		return fmt.Errorf("netsim: Shards = %d", c.Shards)
	}
	if c.MemBudget < 0 {
		return fmt.Errorf("netsim: MemBudget = %d", c.MemBudget)
	}
	if c.Probe != nil {
		if err := c.Probe.validate(); err != nil {
			return err
		}
	}
	for _, j := range c.CutLinks {
		if j < 0 || j >= c.Network.NumLinks() {
			return fmt.Errorf("netsim: CutLinks entry %d out of range [0, %d)", j, c.Network.NumLinks())
		}
	}
	for i, sc := range c.Sessions {
		if sc.Layers < 1 {
			return fmt.Errorf("netsim: session %d: Layers = %d", i, sc.Layers)
		}
		if sc.Layers > MaxLayers {
			return fmt.Errorf("netsim: session %d: Layers = %d exceeds MaxLayers = %d", i, sc.Layers, MaxLayers)
		}
		s := c.Network.Session(i)
		if s.Sender < 0 {
			return fmt.Errorf("netsim: session %d has no concrete sender node (abstract networks are not simulable)", i)
		}
		if len(s.ExtraSenders) > 0 {
			return fmt.Errorf("netsim: session %d: multi-sender sessions are not supported", i)
		}
	}
	for ci, ev := range c.Churn {
		if !(ev.Time >= 0) || math.IsInf(ev.Time, 0) {
			return fmt.Errorf("netsim: churn %d at time %v: want a finite non-negative time", ci, ev.Time)
		}
		if ev.Session < 0 || ev.Session >= c.Network.NumSessions() {
			return fmt.Errorf("netsim: churn %d session %d out of range", ci, ev.Session)
		}
		if ev.Receiver < 0 || ev.Receiver >= c.Network.Session(ev.Session).NumReceivers() {
			return fmt.Errorf("netsim: churn %d receiver %d out of range", ci, ev.Receiver)
		}
	}
	return nil
}

// --- pooled event queue ---

type evKind int8

const (
	evForward evKind = iota
	evChurn
	evSignal
)

// event is a compact 32-byte value. Same-instant ties break on key,
// which packs the priority class (packet events before signals,
// reproducing sim's strict-inequality signal clock) above a monotone
// push sequence number. Sender transmissions never enter the queue —
// they live on the per-session calendar (see sessState.txNext) — so at
// steady state the queue holds only delayed deliveries, churn, and the
// signal clock.
type event struct {
	time float64
	key  uint64
	sess int32
	// layer is the packet layer; node is the arrival node for evForward
	// and the Config.Churn index for evChurn.
	layer, node int32
	kind        evKind
}

const prioSignal = uint64(1) << 56

// eventQueue is an implicit 4-ary min-heap over a preallocated event
// arena: push/pop move 32-byte values inside the backing array, which
// doubles as the event pool — no node allocations, and no appends once
// the high-water mark is reached. 4-ary beats binary here because the
// shallower tree costs fewer value moves per operation on small
// payloads.
type eventQueue struct {
	a []event
}

func evLess(x, y *event) bool {
	if x.time != y.time {
		return x.time < y.time
	}
	return x.key < y.key
}

func (q *eventQueue) push(ev event) {
	q.a = append(q.a, ev)
	i := len(q.a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !evLess(&q.a[i], &q.a[p]) {
			break
		}
		q.a[i], q.a[p] = q.a[p], q.a[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	a := q.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	q.a = a[:n]
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		m := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if evLess(&a[c], &a[m]) {
				m = c
			}
		}
		if !evLess(&a[m], &a[i]) {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}

// --- per-session state ---

// hotEdge is the walk-side half of a multicast-tree edge: exactly the
// 32 bytes the fused forwarding loop reads on every crossing — the
// graph link, the resolved capacity-row index, the entered node's
// receiver and child-edge CSR blocks, its bucket-boundary row offset,
// and the packed admission class / wide-child flag. Records sit in DFS
// pre-order, two per cache line, so an irregular descent streams
// contiguous lines instead of striding 64-byte fused records. The
// entered node id is not stored: it is gtOff >> rowShift, needed only
// on the rare DropTail continuation path.
//
// Everything the walk touches rarely lives elsewhere: drop counters
// and the geometric-sampling constant in coldEdge (read on drops and
// gap refills only), the crossing counter and inter-drop gap in dense
// parallel int64 arrays (sessState.crossed / lossGap — written every
// crossing resp. every lossy crossing, deliberately not inflating this
// record), and the child's subscription maximum in the edgeSub mirror
// narrow-node scans already stream.
type hotEdge struct {
	link int32
	// capIdx indexes engine.capDem: the edge's own link for Capacity
	// edges, the always-admit sentinel row for every other kind (so
	// admission never needs a kind test to find its row).
	capIdx         int32
	recvLo, recvHi int32 // child's block in recvList
	edgeLo, edgeHi int32 // child's own block in hot/order
	gtOff          int32 // child << rowShift: child's row in gt
	// meta packs the admission class (ek*, low bits under metaKindMask)
	// with the metaWide flag: whether the entered child is a wide node,
	// hoisted here so the descent never loads the node-indexed wide[].
	meta uint32
}

const (
	metaKindMask uint32 = 0x7
	metaWide     uint32 = 1 << 3
	// metaCut marks a subtree-sharding cut edge (see subtree.go): the
	// walk fixes its admission outcome but never descends through it —
	// the subtree below runs in the parallel fan-out phase.
	metaCut uint32 = 1 << 4
)

// coldEdge is the accounting half of a tree edge: fields the walk
// touches only on drops (rare by construction) or at result time.
type coldEdge struct {
	// invLog is 1/log(1-loss) for a lossy Bernoulli link: the constant
	// factor of geometric inter-drop sampling, precomputed so a drop
	// costs one log instead of two.
	invLog float64
	drops  int64 // session packets this link dropped
}

// buildEdge is the construction-time edge seed (global node ids) that
// newEngine's tree discovery accumulates before the hot/cold split is
// laid out in DFS order.
type buildEdge struct {
	link, child int32
	kind        int8
	invLog      float64
}

// Admission classes, resolved from LinkKind at build time: lossless
// Bernoulli links collapse into the always-admit class.
const (
	ekAlways    int8 = iota // Perfect, or Bernoulli with zero loss
	ekBernoulli             // lossy Bernoulli: geometric gap thinning
	ekLayerLoss             // Bernoulli with per-layer loss: direct draw per crossing
	ekCapacity
	ekDropTail
)

// sessState carries one session's runtime state in flat, index-addressed
// arrays: the multicast tree (CSR), receiver placement (CSR), the
// receivers' protocol state (parallel arrays), and the per-node
// subscription aggregation that drives pruning and fluid demand.
//
// Node ids here are session-internal: the tree's nodes are renumbered
// in DFS pre-order (sender = 0) when the engine is built, so a packet's
// traversal touches edgeStart/gt/recvStart/subMax rows in nearly
// sequential memory order, and the arrays are sized by the session's
// tree rather than the whole graph.
//
// Subscription aggregation: each node nd aggregates "contributions" —
// the levels of the session's active receivers hosted at nd plus the
// subtree maxima subMax[child] of its tree children. lvlCnt counts
// contributions per level; subMax[nd], the highest populated level, is
// nudged incrementally (up when a contribution overtakes it, down by a
// same-row scan when its slot empties). A contribution change therefore
// costs O(1) per node and propagates only while the node's maximum
// actually moves.
//
// Child ordering (wide nodes): within a wide node's CSR edge block,
// order[] keeps the children counting-sorted by descending subMax.
// gt[nd][v] counts the node's children with subMax > v, so the children
// wanting layer l are exactly order[start : start+gt[nd][l]] —
// forwarding is output-sensitive. A child moving between adjacent
// levels is one swap plus one boundary bump. Narrow nodes skip all of
// this and scan edgeSub directly.
type sessState struct {
	idx    int
	cfg    SessionConfig
	scheme layering.Scheme
	m      int32     // layers (M); the sender is pre-order node 0
	cum    []float64 // [0..M] cumulative scheme rate

	// nAtLevel[v] counts receivers currently at subscription level v,
	// letting the signal clock skip sessions with no receiver at or
	// below the signal level.
	nAtLevel []int32

	// Tree topology, CSR over nodes. Edges of node nd occupy
	// hot[edgeStart[nd]:edgeStart[nd+1]]; edge ids index hot, cold,
	// crossed, lossGap, order positions, pos, and edgeSub.
	edgeStart []int32
	hot       []hotEdge
	cold      []coldEdge
	// crossed[eid] counts session packets that entered the link at edge
	// eid; lossGap[eid] is a Bernoulli edge's crossings-until-next-drop
	// counter (0 = draw on the next crossing). Per-edge rather than
	// per-link: Bernoulli drops are i.i.d. per crossing, so thinning
	// each session's crossing substream with its own geometric stream
	// realizes exactly the same law as a shared per-link coin.
	crossed    []int64
	lossGap    []int64
	parent     []int32 // [node] tree parent, -1 off-tree/root
	parentEdge []int32 // [node] edge id entering the node, -1 off-tree/root
	// Child enumeration is hybrid by fan-out. Narrow nodes (fan-out <=
	// wideFanout) scan edgeSub — a dense edge-indexed mirror of the
	// child's subMax — linearly; that is a couple of cache lines and
	// needs no order maintenance. Wide nodes (the star hub pattern)
	// additionally keep their edge block counting-sorted by descending
	// subMax (order/pos/gt), so forwarding touches exactly the eligible
	// children instead of the full list.
	wide    []bool  // [node] fan-out > wideFanout
	edgeSub []int32 // [edge id] subMax of the edge's child
	order   []int32 // per-node permutation of edge ids, desc by subMax
	pos     []int32 // [edge id] position in order
	gt      []int32 // [(node<<rowShift)+v] children with subMax > v

	// Receiver placement CSR: receivers hosted at node nd are
	// recvList[recvStart[nd]:recvStart[nd+1]].
	recvStart []int32
	recvList  []int32
	recvNode  []int32 // [receiver] hosting node

	// Receiver protocol state, flattened from protocol.Receiver into
	// parallel arrays so the delivery loop touches two cache lines
	// instead of one heap object per receiver. The transition logic
	// mirrors protocol.Receiver exactly (the sim/treesim/capsim
	// cross-check tests guard the equivalence): levels[k] is the joined
	// layer count (0 while departed), countdown[k] the packets left
	// until the next Deterministic/Uncoordinated join, clean[k] the
	// Coordinated no-congestion-since-last-opportunity window.
	levels    []int32
	countdown []int64
	clean     []bool
	received  []int

	// Per-edge fluid-usage accounting: fluidInt[eid] integrates the
	// cumulative scheme rate of the edge's subtree maximum over time
	// (advanced lazily at each subMax move, flushed at the end of the
	// run), fluidT[eid] the instant it was last advanced. Pure
	// accounting: no randomness, no effect on event order.
	fluidInt []float64
	fluidT   []float64

	// Mean-level accounting: sumLevel is the current sum of all receiver
	// levels, levelInt its time integral (advanced lazily like fluidInt).
	sumLevel int64
	levelInt float64
	levelT   float64

	// linger[(eid<<rowShift)+l] is the instant until which edge eid
	// keeps carrying layer l after its subtree abandoned it (nil unless
	// Config.LeaveLatency > 0). The walk checks these rows for the
	// unsubscribed children of every node it expands.
	linger []float64

	subMax []int32 // [node] max contribution level in the subtree
	// lvlCnt[(node<<rowShift)+v] counts contributions at level v
	// (v >= 1). Rows are power-of-two int32 strides so a node's whole
	// count row sits in one or two cache lines and the row offset is a
	// shift; the maximum is recovered by scanning the row downward (at
	// most M slots, same line) instead of keeping a separate bitmask.
	lvlCnt   []int32
	rowShift uint8
	// solo[nd] marks nodes with exactly one contribution (one hosted
	// receiver and no children, or one child and no receivers — leaves
	// and chain nodes): their maximum IS that contribution, so level
	// propagation skips the counting machinery there.
	solo []bool
	// lossOnly marks unpartitioned, linger-free trees carrying only
	// Perfect/Bernoulli links: their transmissions take forwardLossOnly,
	// the walk with the admission switch compiled out. Every other tree
	// takes the general walk.
	lossOnly bool

	// downRecv CSR: downRecv[downStart[eid]:downStart[eid+1]] lists the
	// receivers downstream of edge eid in DFS order — the congestion
	// notification set of a drop on that edge, scanned directly instead
	// of re-walking the subtree.
	downStart []int32
	downRecv  []int32
}

// reorder moves edge eid within its (wide) parent node p's
// counting-sorted block from bucket om to bucket nm, one
// adjacent-bucket swap at a time.
func (s *sessState) reorder(eid, p, om, nm int32) {
	base := s.edgeStart[p]
	row := p << s.rowShift
	for v := om; v < nm; v++ {
		// First slot of bucket v becomes the last slot of bucket v+1.
		tgt := base + s.gt[row+v]
		s.swapOrder(s.pos[eid], tgt)
		s.gt[row+v]++
	}
	for v := om; v > nm; v-- {
		// Last slot of bucket v becomes the first slot of bucket v-1.
		tgt := base + s.gt[row+v-1] - 1
		s.swapOrder(s.pos[eid], tgt)
		s.gt[row+v-1]--
	}
}

func (s *sessState) swapOrder(i, j int32) {
	if i == j {
		return
	}
	s.order[i], s.order[j] = s.order[j], s.order[i]
	s.pos[s.order[i]] = i
	s.pos[s.order[j]] = j
}

// --- engine ---

type engine struct {
	cfg Config
	net *netmodel.Network
	rng *rand.Rand
	// links holds per-link queue state; allocated only when some spec is
	// DropTail (the only kind with mutable link state), so the engine's
	// footprint never scales with raw link count on queue-free networks.
	links []linkState
	sess  []sessState
	// gsess maps the engine's local session index to the network's
	// global session index. Nil means identity: the engine owns every
	// session (Shards == 0). Sharded group engines own a subset.
	gsess []int
	// churn is the engine's churn schedule with ChurnEvent.Session
	// rewritten to local session indices (an engine owning every session
	// aliases cfg.Churn unchanged; group engines carry their filtered
	// slice).
	churn []ChurnEvent
	// capDem packs capacity-admission rows — current fluid demand (sum
	// over sessions crossing the link of cum[subMax[child]], maintained
	// incrementally as subscriptions move; exact for the power-of-two
	// exponential scheme, every partial sum an integer below 2^53),
	// constant background load, and capacity — into 24-byte records so
	// admission touches one cache line instead of three parallel arrays.
	// The slice is dense over the Capacity-kind links only (hotEdge.capIdx
	// carries the remapped row index), sized numCapacityLinks+1: the last
	// row is the always-admit sentinel (capacity +Inf) that non-Capacity
	// edges point their capIdx at. Demand maintenance never writes the
	// sentinel (nothing admits against infinite capacity, and concurrent
	// subtree walkers would share it), and is skipped entirely
	// (trackDemand false) when no link is capacity-coupled, since nothing
	// would read it. Every engine owns its rows outright.
	capDem      []capDemand
	capSentinel int32
	trackDemand bool
	// linkLayerLoss[j] is link j's per-layer Bernoulli loss table,
	// indexed by graph link; nil unless some spec sets LayerLoss (the
	// tables themselves alias the spec's).
	linkLayerLoss [][]float64
	leaveLatency  float64

	q   eventQueue
	seq uint64
	// fwdStack is the sequential walker's reusable DFS work stack of
	// edge ids.
	fwdStack []int32
	// probe is the streaming observation state (nil when off); all its
	// buffers are preallocated, so the hot path pays one nil check per
	// event and nothing else.
	probe *probeState
	// part is the intra-session subtree decomposition (subtree.go); non-nil
	// only on single-session shard-group engines whose tree was cut.
	part *treePartition

	cal calendar

	signalIdx int
	// signalPeriod is the resolved Coordinated signal period (the
	// config's zero-means-1 default applied once).
	signalPeriod float64
	now          float64
	sent         int
	pops         int64
	// Observability tallies (see EngineStats): pops split by kind, the
	// queue's occupancy high-water mark, and calendar ticks fired.
	// Maintained unconditionally — they ride events that already go
	// through the scheduler or the calendar bookkeeping, never the
	// per-crossing hot path — and flushed to cfg.Stats at result time.
	popForward, popChurn, popSignal int64
	ticksFired                      int64
	heapHW                          int
}

// newEngineFor builds an engine that owns a subset of the network's
// sessions. sessIDs lists the owned sessions by global index in
// ascending order (nil means all of them, the Shards == 0 engine);
// churn is the schedule with ChurnEvent.Session already rewritten to
// local indices (the caller filters it for group engines); seed feeds
// the engine's private PCG stream. Everything the engine allocates is
// sized by its own sessions' trees, so disjoint group engines partition
// — not duplicate — the single engine's memory.
func newEngineFor(cfg Config, sessIDs []int, churn []ChurnEvent, seed uint64) (*engine, error) {
	net := cfg.Network
	g := net.Graph()
	numSess := net.NumSessions()
	if sessIDs != nil {
		numSess = len(sessIDs)
	}
	e := &engine{
		cfg:   cfg,
		net:   net,
		rng:   rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		sess:  make([]sessState, numSess),
		gsess: sessIDs,
		churn: churn,
	}
	e.leaveLatency = cfg.LeaveLatency
	// One pass over the specs decides which per-link structures exist at
	// all: queue state only when some link is DropTail (the only kind
	// with mutable per-link state), loss tables only when some spec sets
	// LayerLoss, and capacity rows dense over the Capacity links alone —
	// so a 10M-receiver access fan-out of Perfect links costs zero
	// per-link engine state.
	anyDropTail, anyLayerLoss, numCap := false, false, 0
	for j := range cfg.Links {
		switch cfg.Links[j].Kind {
		case DropTail:
			anyDropTail = true
		case Capacity:
			numCap++
		}
		if cfg.Links[j].LayerLoss != nil {
			anyLayerLoss = true
		}
	}
	// The extra row is the always-admit sentinel non-Capacity edges
	// alias via capIdx; capRemap translates graph link -> dense row.
	e.capSentinel = int32(numCap)
	e.capDem = make([]capDemand, numCap+1)
	e.capDem[numCap] = capDemand{cap: math.Inf(1)}
	var capRemap []int32
	if numCap > 0 {
		e.trackDemand = true
		capRemap = make([]int32, net.NumLinks())
		r := int32(0)
		for j := range cfg.Links {
			if cfg.Links[j].Kind == Capacity {
				capRemap[j] = r
				e.capDem[r] = capDemand{bg: cfg.Links[j].Background, cap: cfg.Links[j].effCapacity(net.Capacity(j))}
				r++
			}
		}
	}
	if anyDropTail {
		e.links = make([]linkState, net.NumLinks())
		for j := range e.links {
			e.links[j] = newLinkState(cfg.Links[j], net.Capacity(j))
		}
	}
	if anyLayerLoss {
		e.linkLayerLoss = make([][]float64, net.NumLinks())
		for j := range cfg.Links {
			e.linkLayerLoss[j] = cfg.Links[j].LayerLoss
		}
	}
	nn := g.NumNodes()
	// Scratch for tree discovery on global node ids, reused per session.
	gParent := make([]int32, nn)
	gParentLink := make([]int32, nn)
	gChildren := make([][]buildEdge, nn)
	intern := make([]int32, nn) // global node id -> session-internal id
	// Construction scratch reused across sessions, and one immutable
	// layering scheme per distinct layer count (see exponential).
	var globalOf, dfs, fill, dfill []int32
	schemes := make([]layering.Scheme, MaxLayers+1)
	layers := make([]int32, numSess) // handed to the calendar
	maxEdges := 0
	for li := range e.sess {
		gi := li
		if sessIDs != nil {
			gi = sessIDs[li]
		}
		ns := net.Session(gi)
		sc := cfg.Sessions[gi]
		m := int32(sc.Layers)
		s := &e.sess[li]
		layers[li] = m
		*s = sessState{idx: li, cfg: sc, scheme: exponential(schemes, sc.Layers), m: m}
		// The session's arrays are carved out of per-width slabs once
		// the tree is discovered and every size is known (below).
		// Discover the multicast tree on global node ids from the
		// receivers' data-paths. The sender's parent slot is claimed up
		// front: a walk that re-enters the root would otherwise hang a
		// cycle off the "tree" (hand-built paths can do this; routed
		// ones cannot) and must be rejected below.
		for nd := 0; nd < nn; nd++ {
			gParent[nd] = -1
			gParentLink[nd] = -1
			gChildren[nd] = gChildren[nd][:0]
		}
		gParent[ns.Sender] = int32(ns.Sender)
		nEdges := 0
		for k := range ns.Receivers {
			cur := ns.Sender
			for _, j := range net.Path(gi, k) {
				nb := g.Other(j, cur)
				if p := gParent[nb]; p == -1 {
					gParent[nb] = int32(cur)
					gParentLink[nb] = int32(j)
					spec := LinkSpec{}
					if cfg.Links != nil {
						spec = cfg.Links[j]
					}
					ek := ekAlways
					invLog := 0.0
					switch spec.Kind {
					case Bernoulli:
						if spec.LayerLoss != nil {
							ek = ekLayerLoss
						} else if spec.Loss > 0 {
							ek = ekBernoulli
							invLog = 1 / math.Log(1-spec.Loss)
						}
					case Capacity:
						ek = ekCapacity
					case DropTail:
						ek = ekDropTail
					}
					gChildren[cur] = append(gChildren[cur], buildEdge{
						link: int32(j), child: int32(nb), kind: ek, invLog: invLog,
					})
					nEdges++
				} else if p != int32(cur) {
					return nil, fmt.Errorf("netsim: session %d data-paths do not form a tree (node %d reached from %d and %d)", gi, nb, p, cur)
				} else if gParentLink[nb] != int32(j) {
					// Same parent node over a parallel link: still two
					// distinct physical trees.
					return nil, fmt.Errorf("netsim: session %d data-paths do not form a tree (node %d reached via links %d and %d)", gi, nb, gParentLink[nb], j)
				}
				cur = nb
			}
		}
		// Renumber the tree's nodes in DFS pre-order (children in
		// data-path discovery order, which is deterministic) so the
		// per-node arrays below are visited near-sequentially by the
		// forwarding DFS, and size everything by the tree, not the graph.
		treeN := 1 + nEdges
		nR := ns.NumReceivers()
		for s.rowShift = 1; 1<<s.rowShift < int(m)+1; s.rowShift++ {
		}
		rowLen := treeN << s.rowShift
		// Slab allocation: one backing array per element width, carved
		// into the session's arrays — a handful of allocations per
		// session instead of ~25, with the walk-side arrays adjacent in
		// memory. Capacities are capped at each carve so an accidental
		// append could never bleed into a neighbor. downRecv is the one
		// exception: its length (the sum of receiver depths) is only
		// known after the counting pass further down.
		s32 := make([]int32, 3*nR+(sc.Layers+1)+3*treeN+2*(treeN+1)+2*rowLen+4*nEdges+1)
		s64 := make([]int64, nR+2*nEdges)
		nf := sc.Layers + 1 + 2*nEdges
		if cfg.LeaveLatency > 0 {
			nf += nEdges << s.rowShift
		}
		sf := make([]float64, nf)
		sb := make([]bool, nR+2*treeN)
		take32 := func(n int) []int32 { v := s32[:n:n]; s32 = s32[n:]; return v }
		take64 := func(n int) []int64 { v := s64[:n:n]; s64 = s64[n:]; return v }
		takeF := func(n int) []float64 { v := sf[:n:n]; sf = sf[n:]; return v }
		takeB := func(n int) []bool { v := sb[:n:n]; sb = sb[n:]; return v }
		s.edgeStart = take32(treeN + 1)
		s.edgeSub = take32(nEdges)
		s.order = take32(nEdges)
		s.pos = take32(nEdges)
		s.gt = take32(rowLen)
		s.lvlCnt = take32(rowLen)
		s.subMax = take32(treeN)
		s.parent = take32(treeN)
		s.parentEdge = take32(treeN)
		s.recvStart = take32(treeN + 1)
		s.recvList = take32(nR)
		s.recvNode = take32(nR)
		s.levels = take32(nR)
		s.nAtLevel = take32(sc.Layers + 1)
		s.downStart = take32(nEdges + 1)
		s.crossed = take64(nEdges)
		s.lossGap = take64(nEdges)
		s.countdown = take64(nR)
		s.cum = takeF(sc.Layers + 1)
		s.fluidInt = takeF(nEdges)
		s.fluidT = takeF(nEdges)
		if cfg.LeaveLatency > 0 {
			s.linger = takeF(nEdges << s.rowShift)
		}
		s.wide = takeB(treeN)
		s.solo = takeB(treeN)
		s.clean = takeB(nR)
		s.received = make([]int, nR)
		s.hot = make([]hotEdge, 0, nEdges)
		s.cold = make([]coldEdge, 0, nEdges)
		s.nAtLevel[0] = int32(nR) // all pre-join
		for v := 0; v <= sc.Layers; v++ {
			s.cum[v] = s.scheme.CumulativeRate(v)
		}
		s.parent[0] = -1
		s.parentEdge[0] = -1
		// Pass 1: pre-order numbering (children in data-path discovery
		// order, so the permutation is deterministic).
		globalOf = globalOf[:0]
		dfs = append(dfs[:0], int32(ns.Sender))
		for len(dfs) > 0 {
			gnd := dfs[len(dfs)-1]
			dfs = dfs[:len(dfs)-1]
			intern[gnd] = int32(len(globalOf))
			globalOf = append(globalOf, gnd)
			// Push in reverse so pop order follows discovery order.
			for c := len(gChildren[gnd]) - 1; c >= 0; c-- {
				dfs = append(dfs, gChildren[gnd][c].child)
			}
		}
		// Receiver placement CSR first (counting sort by hosting node),
		// so pass 2 can embed each child's receiver block in its edge.
		for k := range ns.Receivers {
			s.recvNode[k] = intern[ns.Receivers[k]]
		}
		for k := range s.recvNode {
			s.recvStart[s.recvNode[k]+1]++
		}
		for nd := 0; nd < treeN; nd++ {
			s.recvStart[nd+1] += s.recvStart[nd]
		}
		fill = append(fill[:0], s.recvStart[:treeN]...)
		for k := range s.recvNode {
			nd := s.recvNode[k]
			s.recvList[fill[nd]] = int32(k)
			fill[nd]++
		}
		// Pass 2: CSR blocks in internal id order; with pre-order ids a
		// packet's DFS touches the rows near-sequentially.
		for ind := int32(0); ind < int32(treeN); ind++ {
			s.edgeStart[ind] = int32(len(s.hot))
			for _, ed := range gChildren[globalOf[ind]] {
				eid := int32(len(s.hot))
				child := intern[ed.child]
				capIdx := e.capSentinel
				if ed.kind == ekCapacity {
					capIdx = capRemap[ed.link]
				}
				s.hot = append(s.hot, hotEdge{
					link: ed.link, capIdx: capIdx,
					recvLo: s.recvStart[child],
					recvHi: s.recvStart[child+1],
					gtOff:  child << s.rowShift,
					meta:   uint32(ed.kind),
				})
				s.cold = append(s.cold, coldEdge{invLog: ed.invLog})
				s.parent[child] = ind
				s.parentEdge[child] = eid
				// Identity permutation: every edge starts in bucket 0
				// (all subMax are 0 before receivers join), which is
				// trivially counting-sorted.
				s.order[eid] = eid
				s.pos[eid] = eid
			}
		}
		s.edgeStart[treeN] = int32(len(s.hot))
		// Each child's own edge block is known only now.
		for eid := range s.hot {
			child := s.hot[eid].gtOff >> s.rowShift
			s.hot[eid].edgeLo = s.edgeStart[child]
			s.hot[eid].edgeHi = s.edgeStart[child+1]
		}
		s.lossOnly = s.linger == nil
		for eid := range s.hot {
			if k := int8(s.hot[eid].meta & metaKindMask); k != ekAlways && k != ekBernoulli {
				s.lossOnly = false
			}
		}
		for nd := 0; nd < treeN; nd++ {
			s.wide[nd] = s.edgeStart[nd+1]-s.edgeStart[nd] > wideFanout
			s.solo[nd] = (s.edgeStart[nd+1]-s.edgeStart[nd])+(s.recvStart[nd+1]-s.recvStart[nd]) == 1
		}
		// wide[] is known only now; stamp each edge with its child's
		// wideness so the descent skips the node-indexed load.
		for eid := range s.hot {
			if s.wide[s.hot[eid].gtOff>>s.rowShift] {
				s.hot[eid].meta |= metaWide
			}
		}
		// Downstream-receiver CSR per edge: a receiver at internal node
		// nd sits below every edge on nd's root path, i.e. below
		// parentEdge of each ancestor. Receivers are grouped per edge in
		// DFS (pre-order) receiver order.
		for k := range s.recvNode {
			for nd := s.recvNode[k]; nd != 0; nd = s.parent[nd] {
				s.downStart[s.parentEdge[nd]+1]++
			}
		}
		for eid := 0; eid < nEdges; eid++ {
			s.downStart[eid+1] += s.downStart[eid]
		}
		s.downRecv = make([]int32, s.downStart[nEdges])
		dfill = append(dfill[:0], s.downStart[:nEdges]...)
		// recvList is already in pre-order node order; walking it keeps
		// each edge's block in DFS order, matching the old subtree walk.
		for _, k := range s.recvList {
			for nd := s.recvNode[k]; nd != 0; nd = s.parent[nd] {
				eid := s.parentEdge[nd]
				s.downRecv[dfill[eid]] = k
				dfill[eid]++
			}
		}
		// Bring every receiver online through the same incremental
		// machinery the run uses (joins bubble up, order buckets and
		// link demand update as a side effect).
		for k := range s.levels {
			e.applyLevelChange(s, e.seqWalker(), k, 1)
			e.armReceiver(s, e.seqWalker(), k, 1)
		}
		if nEdges > maxEdges {
			maxEdges = nEdges
		}
	}
	// The DFS work stack can hold at most one entry per tree edge;
	// reserving the worst case up front keeps the walk append-free for
	// the whole run (part of the PlanMemory no-growth contract).
	e.fwdStack = make([]int32, 0, maxEdges)
	e.cal = newCalendar(layers, schemes)

	// Seed the clock: the global signal and churn (transmissions live on
	// the per-session calendars). Preallocate the arena at its expected
	// high-water mark so steady state never appends.
	e.q.a = make([]event, 0, len(e.churn)+1+64)
	e.signalPeriod = cfg.SignalPeriod
	if e.signalPeriod == 0 {
		e.signalPeriod = 1
	}
	for i := range e.sess {
		if e.sess[i].cfg.Protocol == protocol.Coordinated && e.sess[i].cfg.Layers > 1 {
			e.push(event{time: e.signalPeriod, key: prioSignal, kind: evSignal})
			break
		}
	}
	for ci, ev := range e.churn {
		e.push(event{time: ev.Time, kind: evChurn, node: int32(ci)})
	}
	if cfg.Probe != nil {
		e.probe = newProbeState(cfg.Probe, e)
	}
	// Intra-session subtree decomposition: only for sharded group engines
	// (sessIDs non-nil; the Shards == 0 engine never partitions) holding
	// a single session. Eligibility and the frontier are
	// pure functions of the Config, never of Shards' value or core count.
	if cfg.Shards > 0 && sessIDs != nil && len(e.sess) == 1 {
		if e.part = newTreePartition(e, &e.sess[0], seed); e.part != nil {
			e.sess[0].lossOnly = false
		}
	}
	return e, nil
}

func (e *engine) push(ev event) {
	ev.key |= e.seq
	e.seq++
	e.q.push(ev)
	if n := len(e.q.a); n > e.heapHW {
		e.heapHW = n
	}
}

// walker names the RNG stream a packet walk draws from and the level
// accumulator its receivers' level changes land in. The sequential
// walker (sub < 0, see seqWalker) draws from the engine's own stream,
// books levels in the sessState scalars and propagates level changes to
// the session root. A subtree walker (sub = j, partitioned engines
// only) draws from subtree j's private stream, books levels in the
// partition's row j and stops propagation at the subtree root, so
// walkers of distinct subtrees can run concurrently.
type walker struct {
	rng *rand.Rand
	sub int
}

// seqWalker is the engine's sequential walker: transmissions on
// unpartitioned trees, the core phase, DropTail continuations, churn,
// signals and construction all run under it.
func (e *engine) seqWalker() walker { return walker{e.rng, -1} }

// applyLevelChange records receiver k's new subscription level in w's
// level accumulator and propagates the contribution change up the
// session tree (see propagateFrom).
func (e *engine) applyLevelChange(s *sessState, w walker, k int, nl int32) {
	a := s.levels[k]
	if nl == a {
		return
	}
	s.levels[k] = nl
	if w.sub < 0 {
		s.levelInt += float64(s.sumLevel) * (e.now - s.levelT)
		s.levelT = e.now
		s.sumLevel += int64(nl - a)
		s.nAtLevel[a]--
		s.nAtLevel[nl]++
	} else {
		p, j := e.part, w.sub
		p.levelInt[j] += float64(p.sumLevel[j]) * (e.now - p.levelT[j])
		p.levelT[j] = e.now
		p.sumLevel[j] += int64(nl - a)
		row := j * int(p.mrow)
		p.nAtLevel[row+int(a)]--
		p.nAtLevel[row+int(nl)]++
	}
	nd := s.recvNode[k]
	e.propagateFrom(s, w, nd, a, nl)
	if p := e.part; p != nil && w.sub < 0 {
		// Sequential changes (churn, signals, core-walk drops) propagate
		// straight through cut edges; re-sync the owning subtree's rollup
		// snapshot so the deferred path stays coherent.
		if j := p.subOfNode[nd]; j >= 0 {
			p.prevRootMax[j] = s.subMax[p.subRoot[j]]
		}
	}
}

// propagateFrom bubbles a contribution change (level a -> b) at node nd
// up the session tree: per ancestor it is one counting-bucket bump;
// propagation stops at the first node whose maximum does not move, and
// in any case at w's top node — the session root for the sequential
// walker, the subtree root for a subtree walker (the cut edge above it
// is rollupSubtree's).
func (e *engine) propagateFrom(s *sessState, w walker, nd, a, b int32) {
	top := int32(0)
	if w.sub >= 0 {
		top = e.part.subRoot[w.sub]
	}
	for {
		om := s.subMax[nd]
		var nm int32
		if s.solo[nd] {
			// Single-contribution node: its maximum is the contribution.
			nm = b
		} else {
			// Move one contribution at nd from level a to level b (level
			// 0 contributions are identity — they can never become the
			// maximum), then recover the new maximum from the count row:
			// it only moves up when b overtakes it, and only moves down
			// when the old maximum's slot empties.
			row := nd << s.rowShift
			if a > 0 {
				s.lvlCnt[row+a]--
			}
			if b > 0 {
				s.lvlCnt[row+b]++
			}
			nm = om
			if b > om {
				nm = b
			} else if a == om && s.lvlCnt[row+om] == 0 {
				for nm--; nm > 0 && s.lvlCnt[row+nm] == 0; nm-- {
				}
			}
		}
		if nm == om {
			return
		}
		s.subMax[nd] = nm
		if nd == top {
			return
		}
		// The edge above nd: advance its fluid integral, publish the
		// new edgeSub, adjust a Capacity link's demand by the
		// cumulative-rate delta, and re-bucket it in a wide parent.
		eid := s.parentEdge[nd]
		s.fluidInt[eid] += s.cum[om] * (e.now - s.fluidT[eid])
		s.fluidT[eid] = e.now
		s.edgeSub[eid] = nm
		if e.trackDemand {
			if ci := s.hot[eid].capIdx; ci != e.capSentinel {
				e.capDem[ci].dem += s.cum[nm] - s.cum[om]
			}
		}
		if s.linger != nil && nm < om {
			// Layers nm..om-1 just lost their last subscriber below this
			// edge; the link keeps carrying them until now + latency.
			until := e.now + e.leaveLatency
			row := eid << s.rowShift
			for v := nm; v < om; v++ {
				s.linger[row+v] = until
			}
		}
		p := s.parent[nd]
		if s.wide[p] {
			s.reorder(eid, p, om, nm)
		}
		a, b = om, nm
		nd = p
	}
}

// armReceiver re-arms receiver k's join logic at level lv, drawing from
// w's stream — the engine inlining of protocol.Receiver.resetEventState.
func (e *engine) armReceiver(s *sessState, w walker, k int, lv int32) {
	switch s.cfg.Protocol {
	case protocol.Deterministic:
		s.countdown[k] = int64(protocol.JoinThreshold(int(lv)))
	case protocol.Uncoordinated:
		s.countdown[k] = int64(protocol.SampleGeometric(w.rng, 1/float64(protocol.JoinThreshold(int(lv)))))
	case protocol.Coordinated:
		s.clean[k] = true
	}
}

// joinReceiver adds one layer to receiver k (bounded by M) and re-arms
// its join state — protocol.Receiver.join.
func (e *engine) joinReceiver(s *sessState, w walker, k int) {
	lv := s.levels[k]
	if lv < s.m {
		lv++
		e.applyLevelChange(s, w, k, lv)
	}
	e.armReceiver(s, w, k, lv)
}

// congestReceiver applies a congestion observation to receiver k: leave
// the top joined layer (unless only the base layer is joined) and
// re-arm — protocol.Receiver.OnCongestion.
func (e *engine) congestReceiver(s *sessState, w walker, k int) {
	lv := s.levels[k]
	if lv > 1 {
		lv--
		e.applyLevelChange(s, w, k, lv)
	}
	e.armReceiver(s, w, k, lv)
	s.clean[k] = false // a Coordinated receiver must wait for a clean window
}

// walk drains one packet of layer through the session tree from node at
// time t under walker w: one fused, allocation-free loop over the work
// stack st, which it returns emptied for reuse. Per hop it reads the
// 32-byte hot edge record (admission class, the entered node's receiver
// and child blocks), decides admission inline with w's stream
// (Perfect/Bernoulli/LayerLoss/Capacity; DropTail goes through the queue
// model and schedules a continuation event at its exit time), delivers
// to the entered node's subscribed receivers, then tail-descends into
// the first eligible child, pushing only the remaining siblings.
//
// A cut edge (metaCut, partitioned engines only) is crossed and its
// admission fixed, but an admitted packet is recorded as an arrival for
// the subtree below instead of descending: phase 2 walks it there under
// the subtree's walker. Under a leave-latency regime every expanded node
// also meters a crossing on each unsubscribed child whose linger window
// is still open; those deliver nothing and draw no randomness, so the
// subscribed crossings and every draw stay those of the latency-0 walk.
//
// Eligibility snapshots before descent: sibling subtrees are disjoint,
// so processing one cannot change another's subtree maximum, and level
// changes triggered by a delivery only re-bucket nodes on the path to
// the root — never the entered node's own children.
func (e *engine) walk(s *sessState, w walker, layer, node int32, t float64, st []int32) []int32 {
	countJoins := s.cfg.Protocol != protocol.Coordinated
	// The entry node is expanded like any entered node, through a
	// stand-in edge record carrying its receiver and child blocks. Its
	// fields are stored one by one: a composite literal is built in a
	// temporary and block-copied, and the wide copy's loads stall on
	// the narrow stores still in flight.
	var entry hotEdge
	entry.recvLo, entry.recvHi = s.recvStart[node], s.recvStart[node+1]
	entry.edgeLo, entry.edgeHi = s.edgeStart[node], s.edgeStart[node+1]
	entry.gtOff = node << s.rowShift
	if s.wide[node] {
		entry.meta = metaWide
	}
	ed := &entry
	var eid int32
	st = st[:0]
	for {
		// Deliver to the entered node's receivers.
		for x := ed.recvLo; x < ed.recvHi; x++ {
			k := s.recvList[x]
			if s.levels[k] > layer { // departed receivers sit at level 0
				s.received[k]++
				if countJoins {
					s.countdown[k]--
					if s.countdown[k] <= 0 {
						e.joinReceiver(s, w, int(k))
					}
				}
			}
		}
		if s.linger != nil {
			for ceid := ed.edgeLo; ceid < ed.edgeHi; ceid++ {
				if s.edgeSub[ceid] <= layer && s.linger[(ceid<<s.rowShift)+layer] > t {
					s.crossed[ceid]++ // a leave still being processed wastes the link
				}
			}
		}
		// Expand the entered node's eligible children and tail-descend
		// into the first one (in the same order the stack would yield).
		if ed.meta&metaWide != 0 {
			if cn := s.gt[ed.gtOff+layer]; cn > 0 {
				cb := ed.edgeLo
				for p := cn - 1; p >= 1; p-- {
					st = append(st, s.order[cb+p])
				}
				eid = s.order[cb]
				goto descend
			}
		} else {
			first := int32(-1)
			for ceid := ed.edgeHi - 1; ceid >= ed.edgeLo; ceid-- {
				if s.edgeSub[ceid] > layer {
					if first >= 0 {
						st = append(st, first)
					}
					first = ceid
				}
			}
			if first >= 0 {
				eid = first
				goto descend
			}
		}
	pop:
		if len(st) == 0 {
			return st
		}
		eid = st[len(st)-1]
		st = st[:len(st)-1]
	descend:
		ed = &s.hot[eid]
		s.crossed[eid]++
		switch int8(ed.meta & metaKindMask) {
		case ekAlways:
		case ekBernoulli:
			// The i.i.d. Bernoulli drop process is realized by sampling
			// inter-drop gaps geometrically — exactly the same law as a
			// per-crossing coin flip, one RNG draw per drop instead of
			// one per crossing. The refill happens at the consumption
			// point (a crossing with an exhausted gap), keeping the RNG
			// draw order identical to the per-crossing formulation.
			gap := s.lossGap[eid]
			if gap == 0 {
				// protocol.SampleGeometricInv, textually inlined (the
				// call costs ~2% on loss-heavy walks; the property
				// suite pins the equivalence draw for draw).
				u := w.rng.Float64()
				if u <= 0 {
					u = math.SmallestNonzeroFloat64
				}
				gap = int64(math.Log(u)*s.cold[eid].invLog) + 1
				if gap < 1 {
					gap = 1
				}
			}
			gap--
			s.lossGap[eid] = gap
			if gap == 0 {
				goto drop
			}
		case ekLayerLoss:
			// Layer-dependent loss breaks the geometric-gap trick (the
			// per-crossing probability is no longer constant), so draw
			// directly per crossing.
			ll := e.linkLayerLoss[ed.link]
			p := ll[len(ll)-1]
			if int(layer) < len(ll) {
				p = ll[layer]
			}
			if p > 0 && w.rng.Float64() < p {
				goto drop
			}
		case ekCapacity:
			// Drop with probability (d-c)/d; comparing r*d < d-c avoids
			// the division on the admission fast path.
			cd := &e.capDem[ed.capIdx]
			if d := cd.dem + cd.bg; d > cd.cap && w.rng.Float64()*d < d-cd.cap {
				goto drop
			}
		default: // ekDropTail; never on partitioned trees
			exit, full := e.links[ed.link].admitQueue(t)
			if full {
				goto drop
			}
			if exit > t {
				e.push(event{time: exit, kind: evForward, sess: int32(s.idx), layer: layer, node: ed.gtOff >> s.rowShift})
				goto pop
			}
		}
		if ed.meta&metaCut != 0 {
			e.part.arrivals = append(e.part.arrivals, e.part.subOfNode[ed.gtOff>>s.rowShift])
			goto pop
		}
		continue
	drop:
		s.cold[eid].drops++
		e.notifyLoss(s, w, layer, eid)
		goto pop
	}
}

// forwardLossOnly is the walk of one transmission from the sender of a
// lossOnly session (Perfect/Bernoulli links, unpartitioned, no linger)
// with the admission switch compiled out: an edge either always admits
// or runs the geometric gap counter. Behavior is identical to walk
// under the sequential walker.
func (e *engine) forwardLossOnly(s *sessState, layer int32) {
	countJoins := s.cfg.Protocol != protocol.Coordinated
	for x := s.recvStart[0]; x < s.recvStart[1]; x++ {
		k := s.recvList[x]
		if s.levels[k] > layer {
			s.received[k]++
			if countJoins {
				s.countdown[k]--
				if s.countdown[k] <= 0 {
					e.joinReceiver(s, e.seqWalker(), int(k))
				}
			}
		}
	}
	st := e.fwdStack[:0]
	if s.wide[0] {
		for p := s.gt[layer] - 1; p >= 0; p-- {
			st = append(st, s.order[p])
		}
	} else {
		for ceid := s.edgeStart[1] - 1; ceid >= 0; ceid-- {
			if s.edgeSub[ceid] > layer {
				st = append(st, ceid)
			}
		}
	}
	for len(st) > 0 {
		eid := st[len(st)-1]
		st = st[:len(st)-1]
	descend:
		ed := &s.hot[eid]
		s.crossed[eid]++
		// In a loss-only tree the kind bits are ekAlways (0) or
		// ekBernoulli, so any set kind bit means "run the gap counter".
		if ed.meta&metaKindMask != 0 {
			gap := s.lossGap[eid]
			if gap == 0 {
				u := e.rng.Float64()
				if u <= 0 {
					u = math.SmallestNonzeroFloat64
				}
				gap = int64(math.Log(u)*s.cold[eid].invLog) + 1
				if gap < 1 {
					gap = 1
				}
			}
			gap--
			s.lossGap[eid] = gap
			if gap == 0 {
				s.cold[eid].drops++
				e.notifyLoss(s, e.seqWalker(), layer, eid)
				continue
			}
		}
		for x := ed.recvLo; x < ed.recvHi; x++ {
			k := s.recvList[x]
			if s.levels[k] > layer {
				s.received[k]++
				if countJoins {
					s.countdown[k]--
					if s.countdown[k] <= 0 {
						e.joinReceiver(s, e.seqWalker(), int(k))
					}
				}
			}
		}
		if ed.meta&metaWide != 0 {
			if cn := s.gt[ed.gtOff+layer]; cn > 0 {
				cb := ed.edgeLo
				for p := cn - 1; p >= 1; p-- {
					st = append(st, s.order[cb+p])
				}
				eid = s.order[cb]
				goto descend
			}
		} else {
			first := int32(-1)
			for ceid := ed.edgeHi - 1; ceid >= ed.edgeLo; ceid-- {
				if s.edgeSub[ceid] > layer {
					if first >= 0 {
						st = append(st, first)
					}
					first = ceid
				}
			}
			if first >= 0 {
				eid = first
				goto descend
			}
		}
	}
	e.fwdStack = st[:0]
}

// notifyLoss delivers a congestion observation to every subscribed
// receiver below the dropping edge, at the drop instant (the paper's
// immediate-feedback idealization; links below a drop carry nothing).
// The downstream receiver set of an edge is static topology, so it is a
// precomputed list scanned in the same DFS order the subtree walk would
// visit — subscribed receivers are exactly those above the layer. Under
// a subtree walker every such receiver lives in the walker's subtree.
func (e *engine) notifyLoss(s *sessState, w walker, layer, eid int32) {
	for _, k := range s.downRecv[s.downStart[eid]:s.downStart[eid+1]] {
		if s.levels[k] > layer {
			e.congestReceiver(s, w, int(k))
		}
	}
}

func (e *engine) applyChurn(ev ChurnEvent) {
	s := &e.sess[ev.Session]
	k := ev.Receiver
	switch {
	case ev.Join && s.levels[k] == 0:
		// A rejoining receiver starts fresh at the base layer.
		e.applyLevelChange(s, e.seqWalker(), k, 1)
		e.armReceiver(s, e.seqWalker(), k, 1)
	case !ev.Join && s.levels[k] > 0:
		e.applyLevelChange(s, e.seqWalker(), k, 0)
	}
}

// Run executes one simulation. At Shards == 0 one engine owns every
// session under the replication seed; at Shards >= 1 runSharded splits
// the sessions into link-disjoint group engines. Either way the engines
// run the same loop (run) and fold into the Result through the same
// function (result).
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MemBudget > 0 {
		plan, err := PlanMemory(cfg)
		if err != nil {
			return nil, err
		}
		if plan.Total > cfg.MemBudget {
			return nil, fmt.Errorf("netsim: memory plan %d bytes exceeds MemBudget %d", plan.Total, cfg.MemBudget)
		}
	}
	if cfg.Network.NumSessions() == 0 {
		return nil, fmt.Errorf("netsim: event queue drained before packet budget")
	}
	if cfg.Shards > 0 {
		return runSharded(cfg)
	}
	e, err := newEngineFor(cfg, nil, cfg.Churn, cfg.Seed)
	if err != nil {
		return nil, err
	}
	e.run(cfg.Packets, 0)
	return result(cfg, []*engine{e}), nil
}

// calendar is the dyadic transmit calendar. The exponential scheme's
// periods are dyadic: layer l >= 1 fires every 2^(M-1-l) ticks of the
// finest layer's clock and layer 0 shares layer 1's period, so the
// layers due at tick n are exactly the contiguous range
// [M-1-TrailingZeros(n), M-1] (clamped, and pulled down to 0 when it
// reaches 1). One counter and one TrailingZeros replace a heap round
// trip per packet; times are n*dt, exact in float64. Calendars never
// depend on event outcomes, so groupBudgets replays the same calendar
// without an engine.
type calendar struct {
	// at[i] is session i's next transmission instant, (tick[i]+1)*dt[i]
	// — kept dense so the per-tick argmin peek touches a handful of
	// cache lines instead of one per session's state record.
	at   []float64
	tick []uint64  // [session] finest-layer ticks elapsed
	dt   []float64 // [session] period of the finest layer
	m    []int32   // [session] layer count
	// uniform: every session shares one tick period (equal layer counts
	// — the common case, and all of the committed benchmarks), so the
	// calendars advance in lockstep and the "earliest instant, lowest
	// index" rule is exactly round-robin order: sessions cursor..S-1 sit
	// at time T and 0..cursor-1 at T+dt. Tracking the cursor replaces the
	// O(sessions) argmin scan per tick — the dominant cost on hub-heavy
	// multi-session topologies — with O(1). Mixed-period session sets
	// fall back to the scan.
	uniform bool
	cursor  int
}

// exponential returns layering.Exponential(m), the scheme every session
// transmits, from a cache of MaxLayers+1 entries keyed by layer count
// (the zero Scheme has NumLayers 0, so presence is the value itself —
// no map on the construction path).
func exponential(cache []layering.Scheme, m int) layering.Scheme {
	if cache[m].NumLayers() == 0 {
		cache[m] = layering.Exponential(m)
	}
	return cache[m]
}

// newCalendar lays out the calendar of sessions with the given layer
// counts, which it keeps; schemes is an exponential cache. Each tick
// period is the period of the session scheme's finest layer.
func newCalendar(layers []int32, schemes []layering.Scheme) calendar {
	n := len(layers)
	f := make([]float64, 2*n)
	c := calendar{at: f[:n:n], dt: f[n:], tick: make([]uint64, n), m: layers, uniform: n > 0}
	for i, m := range layers {
		c.dt[i] = 1 / exponential(schemes, int(m)).LayerRate(int(m)-1)
		c.at[i] = c.dt[i]
		c.uniform = c.uniform && c.dt[i] == c.dt[0]
	}
	return c
}

// next returns the session holding the earliest pending transmission —
// the lowest index among ties — and its instant. The calendar must hold
// at least one session.
func (c *calendar) next() (int, float64) {
	if c.uniform {
		return c.cursor, c.at[c.cursor]
	}
	si, ts := 0, c.at[0]
	for i, t := range c.at {
		if t < ts {
			si, ts = i, t
		}
	}
	return si, ts
}

// fire advances session si past its pending tick and returns the lowest
// layer due at it: layers lo..m-1 transmit, layer-ascending.
func (c *calendar) fire(si int) (lo int32) {
	n := c.tick[si] + 1
	lo = c.m[si] - 1 - int32(bits.TrailingZeros64(n))
	if lo <= 1 {
		lo = 0 // layer 0 shares layer 1's period
	}
	c.tick[si] = n
	c.at[si] = float64(n+1) * c.dt[si]
	if c.uniform {
		if c.cursor++; c.cursor == len(c.at) {
			c.cursor = 0
		}
	}
	return lo
}

// run is the event loop. It fires calendar ticks until the engine has
// sent budget packets — stopping exactly at the budget, even midway
// through a tick's due-layer range — applying before each tick the
// scheduled events that precede it. It then applies the events that
// precede the horizon, the instant of the run's final transmission, and
// parks the clock there, so time-integrated outputs all integrate over
// the same duration. A horizon below the engine's own last tick (Run
// passes 0) means that tick: the engine owns every session. Group
// engines get the global instant from groupBudgets. A transmission takes
// forwardLossOnly on lossOnly trees, forwardSubtree on partitioned
// engines, and the general walk otherwise.
func (e *engine) run(budget int, horizon float64) {
	for e.sent < budget {
		si, ts := e.cal.next()
		e.drainUntil(ts)
		if e.probe != nil {
			e.probe.advanceTime(e, ts)
		}
		e.now = ts
		s := &e.sess[si]
		e.ticksFired++
		for l := e.cal.fire(si); l < s.m && e.sent < budget; l++ {
			e.sent++
			// Linger sessions walk even when nothing subscribes: a
			// pending leave still meters crossings on the root edges.
			if s.subMax[0] > l || s.linger != nil {
				switch {
				case s.lossOnly:
					e.forwardLossOnly(s, l)
				case e.part != nil:
					e.forwardSubtree(s, l)
				default:
					e.fwdStack = e.walk(s, e.seqWalker(), l, 0, ts, e.fwdStack)
				}
			}
			if e.probe != nil {
				e.probe.advancePackets(e, ts)
			}
		}
	}
	horizon = max(horizon, e.now)
	e.drainUntil(horizon)
	// Flush every window boundary strictly below the horizon, so group
	// rings line up sample-for-sample regardless of when each group's
	// own activity stopped; the result fold's finish adds the tail.
	if e.probe != nil {
		e.probe.advanceTime(e, horizon)
	}
	e.now = horizon
}

// drainUntil applies, in queue order, every scheduled event that
// precedes a transmission at t: anything strictly earlier, plus
// same-instant packet events (delayed deliveries, churn). Signals yield
// to same-instant packets, reproducing sim's strict-inequality signal
// clock. Everything later stays queued.
func (e *engine) drainUntil(t float64) {
	for len(e.q.a) > 0 {
		top := &e.q.a[0]
		if top.time > t || (top.time == t && top.key >= prioSignal) {
			return
		}
		ev := e.q.pop()
		if e.probe != nil {
			e.probe.advanceTime(e, ev.time)
		}
		e.now = ev.time
		e.pops++
		switch ev.kind {
		case evForward:
			e.popForward++
			// A DropTail continuation: the packet resumes its walk at
			// the node its queue delivered it to.
			e.fwdStack = e.walk(&e.sess[ev.sess], e.seqWalker(), ev.layer, ev.node, e.now, e.fwdStack)
		case evChurn:
			e.popChurn++
			e.applyChurn(e.churn[ev.node])
		case evSignal:
			e.popSignal++
			e.signal()
		}
	}
}

// signal drives the global Coordinated join clock: one nested signal
// level per tick, delivered to every active Coordinated receiver.
func (e *engine) signal() {
	e.signalIdx++
	for i := range e.sess {
		s := &e.sess[i]
		if s.cfg.Protocol != protocol.Coordinated || s.cfg.Layers < 2 {
			continue
		}
		lvl := int32(protocol.SignalLevel(e.signalIdx, s.cfg.Layers-1))
		eligible := false
		for v := int32(1); v <= lvl; v++ {
			if e.levelPopulated(s, v) {
				eligible = true
				break
			}
		}
		if !eligible {
			continue // nobody at or below the signal level: exact no-op
		}
		for k, lv := range s.levels {
			// protocol.Receiver.OnSignal, inlined. Departed receivers
			// (level 0) and receivers above the signal level are exact
			// no-ops, skipped without touching their join state.
			if lv < 1 || lv > lvl {
				continue
			}
			if s.clean[k] {
				e.joinReceiver(s, e.seqWalker(), k)
			} else {
				// Missed opportunity; the next window starts now.
				s.clean[k] = true
			}
		}
	}
	e.push(event{time: e.now + e.signalPeriod, key: prioSignal, kind: evSignal})
}

// result folds finished engines into the Result, in global session
// order. Every engine's clock is parked at the shared horizon, which is
// the run's Duration; an engine's nil gsess maps its sessions to
// themselves.
func result(cfg Config, engines []*engine) *Result {
	net := cfg.Network
	S := net.NumSessions()
	horizon := engines[0].now
	res := &Result{
		ReceiverRates:   make([][]float64, S),
		ReceiverPackets: make([][]int, S),
		FinalLevels:     make([][]int, S),
		MeanLevels:      make([]float64, S),
		Duration:        horizon,
	}
	if cfg.Probe != nil {
		for _, e := range engines {
			e.probe.finish(e)
		}
		res.Probe = probeSeries(cfg, engines)
	}
	// Per-receiver outputs are subslices of three flat backings (the
	// [][] shape is API; the allocation count need not scale with
	// sessions).
	totR := 0
	for i := 0; i < S; i++ {
		totR += net.Session(i).NumReceivers()
	}
	rateBuf := make([]float64, totR)
	pktBuf := make([]int, totR)
	lvlBuf := make([]int, totR)
	for i := 0; i < S; i++ {
		nR := net.Session(i).NumReceivers()
		res.ReceiverRates[i], rateBuf = rateBuf[:nR:nR], rateBuf[nR:]
		res.ReceiverPackets[i], pktBuf = pktBuf[:nR:nR], pktBuf[nR:]
		res.FinalLevels[i], lvlBuf = lvlBuf[:nR:nR], lvlBuf[nR:]
	}
	// Edge-indexed counters fold back to (session, link) in flat
	// session-major slabs: each session's tree crosses a link through at
	// most one edge.
	nL := net.NumLinks()
	linkCrossed := make([]int, S*nL)
	linkDropped := make([]int, S*nL)
	linkFluid := make([]float64, S*nL)
	for _, e := range engines {
		res.PacketsSent += e.sent
		res.Events += int64(e.sent) + e.pops
		for li := range e.sess {
			s := &e.sess[li]
			gi := li
			if e.gsess != nil {
				gi = e.gsess[li]
			}
			for _, n := range s.crossed {
				res.Events += n
			}
			if horizon > 0 && len(s.received) > 0 {
				levelInt := e.sessionLevelIntegral(s, horizon)
				res.MeanLevels[gi] = levelInt / horizon / float64(len(s.received))
			}
			for k, n := range s.received {
				res.ReceiverPackets[gi][k] = n
				res.FinalLevels[gi][k] = int(s.levels[k])
				res.Events += int64(n)
				if horizon > 0 {
					res.ReceiverRates[gi][k] = float64(n) / horizon
				}
			}
			base := gi * nL
			for eid := range s.hot {
				j := base + int(s.hot[eid].link)
				linkCrossed[j] = int(s.crossed[eid])
				linkDropped[j] = int(s.cold[eid].drops)
				if horizon > 0 {
					fluid := s.fluidInt[eid] + s.cum[s.edgeSub[eid]]*(horizon-s.fluidT[eid])
					linkFluid[j] = fluid / horizon
				}
			}
		}
	}
	total := 0
	for j := 0; j < nL; j++ {
		total += len(net.OnLink(j))
	}
	res.Links = make([]LinkStats, 0, total)
	for j := 0; j < nL; j++ {
		for _, sr := range net.OnLink(j) {
			at := sr.Session*nL + j
			ls := LinkStats{
				Link: j, Session: sr.Session,
				Crossed:             linkCrossed[at],
				Dropped:             linkDropped[at],
				FluidRate:           linkFluid[at],
				DownstreamReceivers: len(sr.Receivers),
			}
			if horizon > 0 {
				ls.Rate = float64(ls.Crossed) / horizon
				best := 0.0
				for _, k := range sr.Receivers {
					if r := res.ReceiverRates[sr.Session][k]; r > best {
						best = r
					}
				}
				if best > 0 {
					ls.Redundancy = ls.Rate / best
				}
			}
			res.Links = append(res.Links, ls)
		}
	}
	flushStats(cfg.Stats, engines, res)
	return res
}

// MaxReceiverRate returns the largest goodput in the result (a
// convenience for Definition 3 style normalizations).
func (r *Result) MaxReceiverRate() float64 {
	best := math.Inf(-1)
	for _, rs := range r.ReceiverRates {
		for _, v := range rs {
			if v > best {
				best = v
			}
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}
