package netsim

import (
	"fmt"
	"sync"

	"mlfair/internal/layering"
)

// Session-sharded execution (Config.Shards >= 1).
//
// Sessions whose multicast trees share no link cannot interact: they
// touch disjoint link state, observe disjoint losses, and the engine's
// event order only couples them through the global packet budget and
// the shared RNG stream. Grouping sessions by link-connectivity
// (union-find over the links their data-paths traverse) therefore
// splits one replication into independent sub-simulations — each group
// gets its own engine, its own calendar and event queue, and its own
// PCG stream derived from the replication seed — which run concurrently
// on up to Shards goroutines. Every engine runs the one event loop
// (engine.run) and the engines fold into one Result through the one
// fold (result); Shards == 0 is the same loop and fold over a single
// engine that owns every session.
//
// Determinism argument, piece by piece:
//
//   - Budget. One engine owning every session stops at exactly Packets
//     transmissions, interleaving sessions by (earliest calendar entry,
//     lowest session index). That interleaving is a pure function of
//     the sessions' layer counts — calendars never depend on event
//     outcomes — so replaying the calendar alone (groupBudgets)
//     computes, up front, how many of the Packets transmissions belong
//     to each group and the time T of the final transmission. Each
//     group engine then runs against its own budget and matches the
//     single-engine cut exactly, including a budget that runs out
//     midway through a tick's due-layer range.
//
//   - Horizon. The single engine processes a scheduled event iff it
//     precedes some transmission: time < T, or time == T with packet
//     priority (signals yield to same-instant transmissions). After its
//     budget is spent, a group engine drains its queue by that exact
//     rule and then sets its clock to T, so time-integrated outputs
//     (MeanLevels, FluidRate, rates) integrate over the same duration.
//
//   - Signals. The Coordinated signal clock ticks at fixed multiples of
//     SignalPeriod and consumes no randomness, so per-group clocks fire
//     at identical instants with identical signal indices; a group
//     without Coordinated sessions skips the clock, which is an exact
//     no-op for it (signal delivery only touches a group's own
//     sessions).
//
//   - Probes. Every group flushes the same time-window boundary grid
//     (multiples of Window below the shared horizon), so per-group
//     rings merge window-by-window in the fold.
//
//   - RNG. Group g draws from shardSeed(Seed, g), a pure function of
//     the replication seed and the (topology-determined) group number —
//     never of Shards. Shards therefore only caps goroutine
//     concurrency: every Shards >= 1 produces the identical Result.
//     Group 0 keeps the replication seed itself, so a network whose
//     sessions all share one component (every committed benchmark
//     topology) produces the byte-identical Result at every Shards,
//     0 included.
//
// What sharded mode deliberately does not reproduce is the single
// engine's RNG interleaving ACROSS link-sharing groups: a multi-group
// run's Result differs from the Shards == 0 run the way two different
// seeds differ, while remaining a pure function of the Config.

// shardSalt decorrelates per-group seeds from the replication-seed
// sequence (ReplicationSeed(seed, i) is already used for replication
// fan-out; group fan-out must not collide with it).
const shardSalt = 0x7c15d1a55eed5a17

// shardSeed derives group g's RNG seed. Group 0 inherits the
// replication seed unchanged — the single-group case is then
// stream-identical to the Shards == 0 engine.
func shardSeed(base uint64, g int) uint64 {
	if g == 0 {
		return base
	}
	return ReplicationSeed(base^shardSalt, g)
}

// sessionGroupsOf partitions cfg's sessions into link-connectivity
// components: two sessions share a group iff their data-paths share a
// link, transitively. Union-find over links plus one element per
// session; group numbers are assigned in order of each component's
// lowest session index, so the numbering is a pure function of the
// topology — never of Shards.
func sessionGroupsOf(cfg Config) (groupOf []int, numGroups int) {
	net := cfg.Network
	nL, S := net.NumLinks(), net.NumSessions()
	// Element i < nL is link i; element nL+i is session i.
	parent := make([]int32, nL+S)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for i := 0; i < S; i++ {
		si := int32(nL + i)
		ns := net.Session(i)
		for k := range ns.Receivers {
			for _, j := range net.Path(i, k) {
				union(si, int32(j))
			}
		}
	}
	groupOf = make([]int, S)
	gid := make([]int, nL+S)
	for i := range gid {
		gid[i] = -1
	}
	for i := 0; i < S; i++ {
		r := find(int32(nL + i))
		if gid[r] < 0 {
			gid[r] = numGroups
			numGroups++
		}
		groupOf[i] = gid[r]
	}
	return groupOf, numGroups
}

// groupBudgets replays the transmit calendar alone — no events, no
// RNG — to split the global packet budget across groups and find the
// horizon T: the instant of the run's final sender transmission. It runs
// the engine's own calendar type, so the cut is bit-faithful.
func groupBudgets(cfg Config, groupOf []int, numGroups int) (budgets []int, horizon float64) {
	layers := make([]int32, len(cfg.Sessions))
	for i, sc := range cfg.Sessions {
		layers[i] = int32(sc.Layers)
	}
	cal := newCalendar(layers, make([]layering.Scheme, MaxLayers+1))
	budgets = make([]int, numGroups)
	for sent := 0; sent < cfg.Packets; {
		si, ts := cal.next()
		fire := min(int(cal.m[si]-cal.fire(si)), cfg.Packets-sent)
		budgets[groupOf[si]] += fire
		sent += fire
		horizon = ts
	}
	return budgets, horizon
}

// runSharded is Run's Shards >= 1 path: partition, replay the calendar
// for budgets, build one engine per group, run them on at most
// cfg.Shards goroutines, fold.
func runSharded(cfg Config) (*Result, error) {
	S := cfg.Network.NumSessions()
	groupOf, numGroups := sessionGroupsOf(cfg)
	if cfg.Probe != nil && cfg.Probe.PacketWindow > 0 && numGroups > 1 {
		// Packet-window boundaries count transmissions across ALL
		// sessions in one global order; group engines only see their own
		// budgets, so the windows cannot be reconstructed after the
		// split. Time windows shard fine (the boundary grid is global).
		return nil, fmt.Errorf("netsim: packet-window probing is not supported across %d shard groups (packet boundaries interleave all sessions); use a time Window or Shards on a single-component topology", numGroups)
	}
	budgets, horizon := groupBudgets(cfg, groupOf, numGroups)
	groups := make([][]int, numGroups)
	for i := 0; i < S; i++ {
		groups[groupOf[i]] = append(groups[groupOf[i]], i)
	}
	localIdx := make([]int, S)
	for _, ids := range groups {
		for li, gi := range ids {
			localIdx[gi] = li
		}
	}
	churnFor := make([][]ChurnEvent, numGroups)
	for _, ev := range cfg.Churn {
		g := groupOf[ev.Session]
		lev := ev
		lev.Session = localIdx[ev.Session]
		churnFor[g] = append(churnFor[g], lev)
	}
	engines := make([]*engine, numGroups)
	for g := range engines {
		e, err := newEngineFor(cfg, groups[g], churnFor[g], shardSeed(cfg.Seed, g))
		if err != nil {
			return nil, err
		}
		engines[g] = e
	}
	workers := min(cfg.Shards, numGroups)
	// Partitioned engines (single giant session) spend the rest of the
	// Shards budget on intra-session fan-out workers. Purely a
	// parallelism split: worker counts never reach any output.
	wPer := max(cfg.Shards/numGroups, 1)
	for _, e := range engines {
		if e.part != nil {
			e.part.setWorkers(wPer)
		}
	}
	if workers <= 1 {
		for g, e := range engines {
			e.run(budgets[g], horizon)
		}
	} else {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for g := range engines {
			wg.Add(1)
			sem <- struct{}{}
			go func(g int) {
				defer wg.Done()
				engines[g].run(budgets[g], horizon)
				<-sem
			}(g)
		}
		wg.Wait()
	}
	for _, e := range engines {
		if e.part != nil {
			e.part.stop()
		}
	}
	return result(cfg, engines), nil
}
