package netsim

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"mlfair/internal/protocol"
)

// Intra-session subtree sharding (Config.Shards >= 1, single-session
// shard groups).
//
// Session-group sharding (shard.go) cannot help a group that holds one
// giant session: a 1M-receiver planetary region is still one sequential
// event loop. But inside such a tree almost all work lives below a thin
// bottleneck core (the Sreenivasan et al. scale-free regime): the fan-out
// subtrees hanging off the core are pairwise link-disjoint, so — exactly
// like shard groups — they can only interact through the shared core
// prefix above them. The engine therefore partitions the DFS-ordered CSR
// tree at a cut frontier and splits every transmission walk into three
// phases:
//
//  1. Core (sequential). forwardCore walks the shared prefix with the
//     engine's own RNG stream, exactly like the plain walk, except that a
//     cut edge is not descended: its crossing is counted and its
//     admission outcome fixed here — sequentially, in DFS order — and an
//     admitted packet is recorded as an arrival for the subtree below.
//     Fixing cut-edge outcomes in the core phase is what makes the fan-out
//     phase embarrassingly parallel: nothing a subtree does can change
//     whether a sibling's packet was admitted.
//
//  2. Fan-out (parallel). Each arrived subtree runs the ordinary fused
//     walk over its own edges, drawing from its own PCG stream (seeded
//     from the group seed and the subtree index — never from Shards or
//     the worker schedule) and mutating only subtree-owned state: its
//     receivers' protocol arrays, its edges' counters, its nodes'
//     subscription rows, and a per-subtree level-accounting partition.
//     Level changes propagate only up to the subtree root; the cut edge
//     itself is left untouched (phase 3 owns it). Work is distributed by
//     an atomic cursor — the schedule affects wall-clock only, never
//     state, because subtrees are disjoint.
//
//  3. Rollup (sequential). For each arrival, in ascending subtree order,
//     the deferred cut-edge bookkeeping runs if the subtree root's
//     maximum moved: fluid-integral advance, edgeSub, capacity demand
//     (exact — the scheme's cumulative rates are integer-valued, so the
//     telescoped delta equals the sum of the intermediate deltas), child
//     re-bucketing in the core parent, then the ordinary upward
//     propagation through the core.
//
// Determinism: phases 1 and 3 are sequential with a fixed order; phase 2
// consumes per-subtree streams whose draw order is fixed by the
// arrival sequence (itself fixed by phase 1). The Result is therefore a
// pure function of the Config — every Shards >= 1 yields the identical
// Result, and GOMAXPROCS/worker count never leak into output. Like
// multi-group sharding, the decomposed run is a different (equally
// valid) realization than the Shards == 0 run: subtree streams replace
// slices of the engine's one stream.
//
// The partitioned engine is an ordinary engine otherwise: it runs the
// shared event loop (engine.run routes its transmissions through
// forwardSubtree) and folds through the shared result fold. The
// frontier itself is one policy, chooseFrontier — a pure function of
// the tree — which PlanMemory applies to the same tree to plan the
// partition before any engine exists.
//
// Between transmissions everything is sequential, so churn, signal
// delivery, and probe flushes run on globally consistent state with the
// engine's own stream; level changes from those paths go through the
// full applyLevelChange (straight through the cut edge) and re-sync the
// subtree's rollup snapshot.

// subtreeSalt decorrelates per-subtree seeds from both the replication
// fan-out (ReplicationSeed(seed, i)) and the shard-group fan-out
// (shardSeed — ReplicationSeed(seed^shardSalt, g)).
const subtreeSalt = 0x6a09e667f3bcc909

// subtreeSeed derives subtree j's RNG seed from the owning engine's
// (group) seed. Unlike shardSeed, subtree 0 does not inherit the group
// seed: the core prefix keeps it, so every subtree needs a fresh stream.
func subtreeSeed(base uint64, j int) uint64 {
	return ReplicationSeed(base^subtreeSalt, j+1)
}

// Auto-frontier policy (Config.CutLinks empty): aim for about
// autoCutTargetSubtrees subtrees by cutting the maximal nodes whose
// subtree holds at most ceil-ish nR/target receivers. The guards reject
// decompositions that cannot pay for the phase barriers: tiny sessions,
// frontiers covering less than half the receivers (the core would stay
// the bottleneck), and splinter frontiers of near-empty subtrees (a
// star's leaf edges — no parallelism to extract).
const (
	autoCutTargetSubtrees  = 64
	autoCutMinReceivers    = 4096
	autoCutMinAvgReceivers = 32
)

// treePartition is the engine-side decomposition of one session's tree.
// Built only for single-session shard groups (see newTreePartition for
// the eligibility rules); nil on every other engine, costing them one
// predictable nil check at non-hot call sites.
type treePartition struct {
	numSub int
	// subRoot[j] is subtree j's root node (the cut edge's child) and
	// cutEid[j] the cut edge entering it; subtree indices ascend in DFS
	// pre-order of their roots. subOfNode maps every tree node to its
	// owning subtree, -1 for the core prefix.
	subRoot   []int32
	cutEid    []int32
	subOfNode []int32
	// prevRootMax[j] is subMax[subRoot[j]] as of the last rollup — the
	// comparison that detects deferred cut-edge work. Sequential level
	// changes that run straight through the cut edge re-sync it.
	prevRootMax []int32
	// rngs[j] is subtree j's private PCG stream.
	rngs []*rand.Rand

	// Per-subtree level-accounting partition: the session totals are the
	// sessState scalars plus these rows summed. Parallel-phase changes
	// land here (the owner's row, contention-free); sequential-phase
	// changes keep using the sessState scalars — each delta lands in
	// exactly one accumulator, so sums (and the piecewise-lazy level
	// integral) stay exact. Individual entries may go negative.
	mrow     int32 // row stride: Layers+1
	nAtLevel []int32
	sumLevel []int64
	levelInt []float64
	levelT   []float64

	// arrivals lists the subtrees the current packet reached, in DFS
	// (ascending) order — phase 2's work list and phase 3's merge order.
	arrivals []int32

	// Worker pool. workers is fixed by runSharded (never by the
	// schedule); goroutines are spawned lazily on the first parallel
	// round and stopped by runSharded after the run. stacks[w] is worker
	// w's reusable DFS stack (index 0 belongs to the engine goroutine).
	workers  int
	maxStack int
	layer    int32
	chunk    int64
	cursor   atomic.Int64
	wg       sync.WaitGroup
	wake     []chan struct{}
	stacks   [][]int32
	spawned  bool
}

// frontier is a subtree-sharding cut of one session tree.
type frontier struct {
	// roots lists the subtree roots (each the child end of one cut edge)
	// in node order; subOf maps every node to its owning subtree, -1 for
	// the core prefix.
	roots []int32
	subOf []int32
	// maxEdges is the largest subtree's edge count: the bound on one
	// subtree walk's DFS stack.
	maxEdges int
}

// cutSetOf is Config.CutLinks as a membership set, nil when empty (the
// auto frontier).
func cutSetOf(cfg Config) map[int32]bool {
	if len(cfg.CutLinks) == 0 {
		return nil
	}
	cut := make(map[int32]bool, len(cfg.CutLinks))
	for _, j := range cfg.CutLinks {
		cut[int32(j)] = true
	}
	return cut
}

// chooseFrontier is the frontier policy, a pure function of a tree
// whose nodes are numbered parent before child, node 0 the sender:
// parent[nd] is nd's parent, link[nd] the graph link entering nd, and
// recv[nd] the receivers hosted at nd (accumulated in place into
// subtree receiver counts). A non-nil cut is the explicit Config.CutLinks
// set, honored as given except that nested cuts collapse into the
// outermost. A nil cut selects the auto frontier: the maximal nodes
// holding at most nR/autoCutTargetSubtrees receivers, subject to the
// quality guards. It returns nil when no frontier of at least two
// subtrees qualifies. The result depends only on the tree, never on the
// node numbering, so the engine's DFS order and PlanMemory's
// path-discovery order agree.
func chooseFrontier(parent, link, recv []int32, cut map[int32]bool) *frontier {
	treeN := len(parent)
	if treeN < 3 {
		return nil // a single-edge tree has no interior to cut
	}
	for nd := treeN - 1; nd > 0; nd-- {
		recv[parent[nd]] += recv[nd]
	}
	nR := int(recv[0])
	if nR == 0 || cut == nil && nR < autoCutMinReceivers {
		return nil
	}
	c := max(int32(nR/autoCutTargetSubtrees), 1)
	f := &frontier{subOf: make([]int32, treeN)}
	f.subOf[0] = -1
	cutRecv := 0
	for nd := 1; nd < treeN; nd++ {
		own := f.subOf[parent[nd]]
		if own < 0 {
			// Receiver counts are monotone down the tree, so on the auto
			// frontier "parent above the threshold" is exactly "no
			// ancestor is cut".
			if cut != nil && cut[link[nd]] || cut == nil && recv[nd] <= c && recv[parent[nd]] > c {
				own = int32(len(f.roots))
				f.roots = append(f.roots, int32(nd))
				cutRecv += int(recv[nd])
			}
		}
		f.subOf[nd] = own
	}
	numSub := len(f.roots)
	if numSub < 2 {
		return nil
	}
	if cut == nil && (cutRecv*2 < nR || numSub*autoCutMinAvgReceivers > cutRecv) {
		return nil
	}
	nodes := make([]int, numSub)
	for _, j := range f.subOf {
		if j >= 0 {
			nodes[j]++
		}
	}
	for _, n := range nodes {
		f.maxEdges = max(f.maxEdges, n-1)
	}
	return f
}

// newTreePartition decides whether — and how — the engine's single
// session is decomposed, returning nil when subtree sharding does not
// apply. Eligibility is a pure function of the Config (never of Shards'
// value beyond being >= 1, and never of worker counts): the tree must
// carry no DropTail edge (queue state and delayed-delivery events are
// global), the run must have no leave-latency regime (linger windows
// couple edges across the frontier), and chooseFrontier must find a
// frontier.
func newTreePartition(e *engine, s *sessState, seed uint64) *treePartition {
	if e.leaveLatency > 0 {
		return nil
	}
	for eid := range s.hot {
		if int8(s.hot[eid].meta&metaKindMask) == ekDropTail {
			return nil
		}
	}
	treeN := len(s.subMax)
	link := make([]int32, treeN)
	recv := make([]int32, treeN)
	for nd := 0; nd < treeN; nd++ {
		if nd > 0 {
			link[nd] = s.hot[s.parentEdge[nd]].link
		}
		recv[nd] = s.recvStart[nd+1] - s.recvStart[nd]
	}
	f := chooseFrontier(s.parent, link, recv, cutSetOf(e.cfg))
	if f == nil {
		return nil
	}
	numSub := len(f.roots)
	cutEid := make([]int32, numSub)
	for j, r := range f.roots {
		cutEid[j] = s.parentEdge[r]
		s.hot[cutEid[j]].meta |= metaCut
	}
	p := &treePartition{
		numSub:      numSub,
		subRoot:     f.roots,
		cutEid:      cutEid,
		subOfNode:   f.subOf,
		prevRootMax: make([]int32, numSub),
		rngs:        make([]*rand.Rand, numSub),
		mrow:        s.m + 1,
		nAtLevel:    make([]int32, numSub*int(s.m+1)),
		sumLevel:    make([]int64, numSub),
		levelInt:    make([]float64, numSub),
		levelT:      make([]float64, numSub),
		arrivals:    make([]int32, 0, numSub),
		workers:     1,
		maxStack:    f.maxEdges,
	}
	for j, r := range f.roots {
		// Construction bring-up already ran through the full sequential
		// machinery; snapshot its outcome as the rollup baseline.
		p.prevRootMax[j] = s.subMax[r]
		sd := subtreeSeed(seed, j)
		p.rngs[j] = rand.New(rand.NewPCG(sd, sd^0x9e3779b97f4a7c15))
	}
	return p
}

// setWorkers fixes the fan-out width before the run (clamped to the
// subtree count; at most one goroutine per subtree is ever useful).
// Purely a throughput knob: output is identical for every value.
func (p *treePartition) setWorkers(w int) {
	if w > p.numSub {
		w = p.numSub
	}
	if w < 1 {
		w = 1
	}
	p.workers = w
}

// ensure lazily allocates the stacks and spawns the worker goroutines.
func (p *treePartition) ensure(e *engine, s *sessState) {
	p.spawned = true
	p.stacks = make([][]int32, p.workers)
	for w := range p.stacks {
		p.stacks[w] = make([]int32, 0, p.maxStack)
	}
	p.wake = make([]chan struct{}, p.workers)
	for w := 1; w < p.workers; w++ {
		ch := make(chan struct{}, 1)
		p.wake[w] = ch
		go func(w int, ch chan struct{}) {
			for range ch {
				p.drain(e, s, w)
				p.wg.Done()
			}
		}(w, ch)
	}
}

// stop terminates the worker goroutines (idempotent; safe when none
// were ever spawned).
func (p *treePartition) stop() {
	if !p.spawned {
		return
	}
	for w := 1; w < p.workers; w++ {
		close(p.wake[w])
	}
	p.spawned = false
}

// runPhase2 fans the current arrivals out to the workers and waits for
// the barrier. Small rounds run inline: waking workers costs more than
// a handful of subtree walks.
func (p *treePartition) runPhase2(e *engine, s *sessState, layer int32) {
	n := len(p.arrivals)
	if n == 0 {
		return
	}
	if !p.spawned {
		p.ensure(e, s)
	}
	if p.workers <= 1 || n < 2*p.workers {
		st := p.stacks[0]
		for _, j := range p.arrivals {
			st = e.walkSubtree(s, p, int(j), layer, st)
		}
		p.stacks[0] = st
		return
	}
	p.layer = layer
	chunk := int64(n / (4 * p.workers))
	if chunk < 1 {
		chunk = 1
	}
	p.chunk = chunk
	p.cursor.Store(0)
	p.wg.Add(p.workers - 1)
	for w := 1; w < p.workers; w++ {
		p.wake[w] <- struct{}{}
	}
	p.drain(e, s, 0)
	p.wg.Wait()
}

// drain is one worker's share of a phase-2 round: grab arrival chunks
// off the atomic cursor until the list is exhausted. The grab order is
// a race on purpose — subtrees are disjoint, so the schedule cannot
// influence any output.
func (p *treePartition) drain(e *engine, s *sessState, w int) {
	st := p.stacks[w]
	n := int64(len(p.arrivals))
	layer := p.layer
	for {
		i := p.cursor.Add(p.chunk) - p.chunk
		if i >= n {
			break
		}
		hi := i + p.chunk
		if hi > n {
			hi = n
		}
		for _, j := range p.arrivals[i:hi] {
			st = e.walkSubtree(s, p, int(j), layer, st)
		}
	}
	p.stacks[w] = st
}

// forwardSubtree is the decomposed transmission: core prefix, parallel
// fan-out, deterministic rollup. It replaces forward on partitioned
// engines (runShard routes here).
func (e *engine) forwardSubtree(s *sessState, layer int32) {
	e.forwardCore(s, layer)
	p := e.part
	p.runPhase2(e, s, layer)
	for _, j := range p.arrivals {
		e.rollupSubtree(s, int(j))
	}
}

// forwardCore walks the shared core prefix from the sender exactly like
// forward, except at cut edges: the crossing is counted and the
// admission outcome fixed here with the engine's stream (a drop
// congests the subtree's receivers immediately, through the full
// sequential machinery), and an admitted packet becomes an arrival —
// the descent into the subtree is deferred to phase 2. DropTail never
// occurs on partitioned trees, so no events are scheduled.
func (e *engine) forwardCore(s *sessState, layer int32) {
	p := e.part
	p.arrivals = p.arrivals[:0]
	countJoins := s.cfg.Protocol != protocol.Coordinated
	for x := s.recvStart[0]; x < s.recvStart[1]; x++ {
		k := s.recvList[x]
		if s.levels[k] > layer {
			s.received[k]++
			if countJoins {
				s.countdown[k]--
				if s.countdown[k] <= 0 {
					e.joinReceiver(s, int(k))
				}
			}
		}
	}
	st := e.fwdStack[:0]
	if s.wide[0] {
		for q := s.gt[layer] - 1; q >= 0; q-- {
			st = append(st, s.order[q])
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
		dropped := false
		switch int8(ed.meta & metaKindMask) {
		case ekAlways:
		case ekBernoulli:
			gap := s.lossGap[eid]
			if gap == 0 {
				// protocol.SampleGeometricInv, textually inlined (the
				// call costs ~2% on loss-heavy walks; the property
				// suite pins the equivalence draw for draw).
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
			dropped = gap == 0
		case ekLayerLoss:
			ll := e.linkLayerLoss[ed.link]
			pr := ll[len(ll)-1]
			if int(layer) < len(ll) {
				pr = ll[layer]
			}
			dropped = pr > 0 && e.rng.Float64() < pr
		default: // ekCapacity; ekDropTail is excluded by partition eligibility
			cd := &e.capDem[ed.capIdx]
			d := cd.dem + cd.bg
			dropped = d > cd.cap && e.rng.Float64()*d < d-cd.cap
		}
		if ed.meta&metaCut != 0 {
			if dropped {
				s.cold[eid].drops++
				e.notifyLoss(s, layer, eid)
				continue
			}
			p.arrivals = append(p.arrivals, p.subOfNode[ed.gtOff>>s.rowShift])
			continue
		}
		if dropped {
			s.cold[eid].drops++
			e.notifyLoss(s, layer, eid)
			continue
		}
		for x := ed.recvLo; x < ed.recvHi; x++ {
			k := s.recvList[x]
			if s.levels[k] > layer {
				s.received[k]++
				if countJoins {
					s.countdown[k]--
					if s.countdown[k] <= 0 {
						e.joinReceiver(s, int(k))
					}
				}
			}
		}
		if ed.meta&metaWide != 0 {
			if cn := s.gt[ed.gtOff+layer]; cn > 0 {
				cb := ed.edgeLo
				for q := cn - 1; q >= 1; q-- {
					st = append(st, s.order[cb+q])
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

// walkSubtree delivers one admitted packet through subtree j: the
// ordinary fused walk, starting with the delivery at the subtree root
// (the cut edge's crossing and admission already happened in the core
// phase), drawing only from the subtree's stream and mutating only
// subtree-owned state. Runs concurrently with walks of other subtrees.
func (e *engine) walkSubtree(s *sessState, p *treePartition, j int, layer int32, st []int32) []int32 {
	rng := p.rngs[j]
	node := p.subRoot[j]
	countJoins := s.cfg.Protocol != protocol.Coordinated
	for x := s.recvStart[node]; x < s.recvStart[node+1]; x++ {
		k := s.recvList[x]
		if s.levels[k] > layer {
			s.received[k]++
			if countJoins {
				s.countdown[k]--
				if s.countdown[k] <= 0 {
					e.joinReceiverSub(s, p, j, int(k), rng)
				}
			}
		}
	}
	st = st[:0]
	if s.wide[node] {
		base := s.edgeStart[node]
		for q := s.gt[(node<<s.rowShift)+layer] - 1; q >= 0; q-- {
			st = append(st, s.order[base+q])
		}
	} else {
		for ceid := s.edgeStart[node+1] - 1; ceid >= s.edgeStart[node]; ceid-- {
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
		dropped := false
		switch int8(ed.meta & metaKindMask) {
		case ekAlways:
		case ekBernoulli:
			gap := s.lossGap[eid]
			if gap == 0 {
				// protocol.SampleGeometricInv, textually inlined, against
				// the subtree's stream.
				u := rng.Float64()
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
			dropped = gap == 0
		case ekLayerLoss:
			ll := e.linkLayerLoss[ed.link]
			pr := ll[len(ll)-1]
			if int(layer) < len(ll) {
				pr = ll[layer]
			}
			dropped = pr > 0 && rng.Float64() < pr
		default: // ekCapacity (subtree-owned demand row); ekDropTail excluded
			cd := &e.capDem[ed.capIdx]
			d := cd.dem + cd.bg
			dropped = d > cd.cap && rng.Float64()*d < d-cd.cap
		}
		if dropped {
			s.cold[eid].drops++
			// notifyLoss, bounded: an in-subtree edge's downstream
			// receivers all live in the subtree.
			for _, k := range s.downRecv[s.downStart[eid]:s.downStart[eid+1]] {
				if s.levels[k] > layer {
					e.congestReceiverSub(s, p, j, int(k), rng)
				}
			}
			continue
		}
		for x := ed.recvLo; x < ed.recvHi; x++ {
			k := s.recvList[x]
			if s.levels[k] > layer {
				s.received[k]++
				if countJoins {
					s.countdown[k]--
					if s.countdown[k] <= 0 {
						e.joinReceiverSub(s, p, j, int(k), rng)
					}
				}
			}
		}
		if ed.meta&metaWide != 0 {
			if cn := s.gt[ed.gtOff+layer]; cn > 0 {
				cb := ed.edgeLo
				for q := cn - 1; q >= 1; q-- {
					st = append(st, s.order[cb+q])
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
	return st[:0]
}

// levelChangeSub is applyLevelChange bounded to subtree j, for the
// parallel phase: accounting lands in the subtree's partition row, and
// propagation stops at the subtree root — the cut edge's bookkeeping is
// deferred to rollupSubtree. The sentinel capacity row is shared across
// subtrees, so (unlike the sequential path's blind branch-free write)
// the demand update skips non-Capacity edges.
func (e *engine) levelChangeSub(s *sessState, p *treePartition, j, k int, nl int32) {
	a := s.levels[k]
	if nl == a {
		return
	}
	p.levelInt[j] += float64(p.sumLevel[j]) * (e.now - p.levelT[j])
	p.levelT[j] = e.now
	p.sumLevel[j] += int64(nl - a)
	s.levels[k] = nl
	row := j * int(p.mrow)
	p.nAtLevel[row+int(a)]--
	p.nAtLevel[row+int(nl)]++
	nd := s.recvNode[k]
	b := nl
	root := p.subRoot[j]
	for {
		om := s.subMax[nd]
		var nm int32
		if s.solo[nd] {
			nm = b
		} else {
			crow := nd << s.rowShift
			if a > 0 {
				s.lvlCnt[crow+a]--
			}
			if b > 0 {
				s.lvlCnt[crow+b]++
			}
			nm = om
			if b > om {
				nm = b
			} else if a == om && s.lvlCnt[crow+om] == 0 {
				for nm--; nm > 0 && s.lvlCnt[crow+nm] == 0; nm-- {
				}
			}
		}
		if nm == om {
			return
		}
		s.subMax[nd] = nm
		if nd == root {
			return // cut-edge bookkeeping is rollupSubtree's
		}
		eid := s.parentEdge[nd]
		s.fluidInt[eid] += s.cum[om] * (e.now - s.fluidT[eid])
		s.fluidT[eid] = e.now
		s.edgeSub[eid] = nm
		if e.trackDemand {
			if ci := s.hot[eid].capIdx; ci != e.capSentinel {
				e.capDem[ci].dem += s.cum[nm] - s.cum[om]
			}
		}
		pnd := s.parent[nd]
		if s.wide[pnd] {
			s.reorder(eid, pnd, om, nm)
		}
		a, b = om, nm
		nd = pnd
	}
}

// armReceiverSub is armReceiver against the subtree's stream.
func (e *engine) armReceiverSub(s *sessState, k int, lv int32, rng *rand.Rand) {
	switch s.cfg.Protocol {
	case protocol.Deterministic:
		s.countdown[k] = int64(protocol.JoinThreshold(int(lv)))
	case protocol.Uncoordinated:
		s.countdown[k] = int64(protocol.SampleGeometric(rng, 1/float64(protocol.JoinThreshold(int(lv)))))
	case protocol.Coordinated:
		s.clean[k] = true
	}
}

// joinReceiverSub is joinReceiver bounded to subtree j.
func (e *engine) joinReceiverSub(s *sessState, p *treePartition, j, k int, rng *rand.Rand) {
	lv := s.levels[k]
	if lv < s.m {
		lv++
		e.levelChangeSub(s, p, j, k, lv)
	}
	e.armReceiverSub(s, k, lv, rng)
}

// congestReceiverSub is congestReceiver bounded to subtree j.
func (e *engine) congestReceiverSub(s *sessState, p *treePartition, j, k int, rng *rand.Rand) {
	lv := s.levels[k]
	if lv > 1 {
		lv--
		e.levelChangeSub(s, p, j, k, lv)
	}
	s.clean[k] = false
	switch s.cfg.Protocol {
	case protocol.Deterministic:
		s.countdown[k] = int64(protocol.JoinThreshold(int(lv)))
	case protocol.Uncoordinated:
		s.countdown[k] = int64(protocol.SampleGeometric(rng, 1/float64(protocol.JoinThreshold(int(lv)))))
	}
}

// rollupSubtree performs subtree j's deferred cut-edge work after a
// fan-out round: if the root's maximum moved, advance the cut edge's
// fluid integral, publish the new edgeSub, apply the (telescoped, exact)
// capacity-demand delta, re-bucket the cut edge in its core parent, and
// propagate the contribution change up the core — precisely what the
// sequential walk would have done at the cut edge, just batched.
func (e *engine) rollupSubtree(s *sessState, j int) {
	p := e.part
	root := p.subRoot[j]
	nm := s.subMax[root]
	om := p.prevRootMax[j]
	if nm == om {
		return
	}
	p.prevRootMax[j] = nm
	eid := p.cutEid[j]
	s.fluidInt[eid] += s.cum[om] * (e.now - s.fluidT[eid])
	s.fluidT[eid] = e.now
	s.edgeSub[eid] = nm
	if e.trackDemand {
		e.capDem[s.hot[eid].capIdx].dem += s.cum[nm] - s.cum[om]
	}
	pnd := s.parent[root]
	if s.wide[pnd] {
		s.reorder(eid, pnd, om, nm)
	}
	e.propagateFrom(s, pnd, om, nm)
}

// sessionLevelIntegral is the session's level integral at time now:
// the sessState scalars plus, on partitioned engines, the per-subtree
// accumulators (each lazily advanced to now).
func (e *engine) sessionLevelIntegral(s *sessState, now float64) float64 {
	li := s.levelInt + float64(s.sumLevel)*(now-s.levelT)
	if p := e.part; p != nil {
		for j := range p.sumLevel {
			li += p.levelInt[j] + float64(p.sumLevel[j])*(now-p.levelT[j])
		}
	}
	return li
}

// levelPopulated reports whether any receiver of s currently sits at
// level v: the sessState count plus the partition rows. Individual
// accumulators may be negative; only the sum is meaningful.
func (e *engine) levelPopulated(s *sessState, v int32) bool {
	n := s.nAtLevel[v]
	if p := e.part; p != nil {
		stride := int(p.mrow)
		for j := 0; j < p.numSub; j++ {
			n += p.nAtLevel[j*stride+int(v)]
		}
	}
	return n > 0
}
