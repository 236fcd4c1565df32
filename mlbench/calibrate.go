package main

import "time"

// refSeconds is how long refKernel takes at the reference speed, in
// wall and in CPU seconds alike since it runs on one core: on a 2-vCPU
// Intel Xeon VM under go1.24.0 it measured 0.08-0.11 s.
//
// The hosts the benchmark runs on are shared, and their speed per
// instruction shifts by up to 2-3x between phases lasting from seconds
// to many minutes (cpu_s moves with wall_s, so it is not lost CPU
// time).
// Raw seconds from two runs taken in different phases then differ far
// more than any change to the program would. So the harness runs
// refKernel, fixed code of its own, before every timed iteration and
// after the last, and reports each iteration's times scaled by
// refSeconds over the mean of the two kernel times around it: seconds
// at the reference speed. Wall times are scaled by the kernel's wall
// time and CPU times by its CPU time, so that time the host takes the
// core away, which stretches wall time but not CPU time, is not
// corrected out of cpu_s. The kernel is a small discrete-event walk
// like the engine's, so the phases slow it much as they slow the
// program (it takes out most of a phase shift, not all of it), and no
// change to the program moves it. Both run on the one core the harness
// gives the program.
const refSeconds = 0.1

// refTimes is one refKernel run's wall and CPU seconds.
type refTimes struct{ wall, cpu float64 }

// refScale is the factor that turns wall and CPU seconds measured
// between two kernel runs into reference seconds.
func refScale(before, after refTimes) (wall, cpu float64) {
	return refSeconds / ((before.wall + after.wall) / 2), refSeconds / ((before.cpu + after.cpu) / 2)
}

// refSim is a fixed discrete-event walk over a random tree: packets
// flow from the root to the leaves through a binary event heap, each
// hop surviving a Bernoulli loss draw.
func refSim(seed uint64, nodes, events int) uint64 {
	x := seed*0x9E3779B97F4A7C15 | 1
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// Children in CSR form: node i>0 hangs under a random earlier node.
	parent := make([]int32, nodes)
	deg := make([]int32, nodes+1)
	for i := 1; i < nodes; i++ {
		parent[i] = int32(rnd() % uint64(i))
		deg[parent[i]+1]++
	}
	for i := 1; i <= nodes; i++ {
		deg[i] += deg[i-1]
	}
	kids := make([]int32, nodes)
	fill := make([]int32, nodes)
	copy(fill, deg[:nodes])
	for i := 1; i < nodes; i++ {
		p := parent[i]
		kids[fill[p]] = int32(i)
		fill[p]++
	}
	type ev struct {
		t    float64
		node int32
	}
	heap := make([]ev, 0, 1024)
	push := func(e ev) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].t <= heap[i].t {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() ev {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, m := 2*i+1, i
			if l < last && heap[l].t < heap[m].t {
				m = l
			}
			if l+1 < last && heap[l+1].t < heap[m].t {
				m = l + 1
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		return top
	}
	var delivered uint64
	var now float64
	for n := 0; n < events; n++ {
		if len(heap) == 0 {
			push(ev{now + 1, 0})
		}
		e := pop()
		now = e.t
		for k := deg[e.node]; k < deg[e.node+1]; k++ {
			if rnd()%100 < 3 {
				continue // lost on this hop
			}
			push(ev{now + float64(rnd()%1024+1)*1e-3, kids[k]})
		}
		if deg[e.node] == deg[e.node+1] {
			delivered++
		}
	}
	return delivered
}

var refSink uint64

// refKernel runs the reference work and returns the seconds it took:
// fifty small trees built and walked, as the sweeps construct an engine
// per cell, then one large tree whose walk misses the caches, as the
// planetary run does.
func refKernel() refTimes {
	c0, t0 := cpuSeconds(), time.Now()
	var sum uint64
	for i := uint64(1); i <= 50; i++ {
		sum += refSim(i, 64, 4000)
	}
	sum += refSim(51, 1<<18, 200_000)
	d := refTimes{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}
	refSink += sum
	return d
}
