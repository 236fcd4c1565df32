package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mlfair/internal/netsim"
	"mlfair/internal/protocol"
	"mlfair/internal/stats"
	"mlfair/internal/topology"
)

// planetary is the 1M-receiver single run of the planetary scenario:
// the same topology, link models, sessions, cut frontier and seeds as
// the netsim CLI's -scenario planetary, with one netsim.Run of packets.
// The topology is always the golden file's (seed 777), so every seed
// does the same amount of generation work; the seed drives the run.
type planetary struct {
	packets   int
	receivers int
}

func (*planetary) Name() string { return "planetary-1m" }

type planetaryIn struct {
	topoSeed, runSeed uint64
	opts              topology.PlanetaryOptions
	packets           int
}

// planetaryTopologySeed is the seed behind planetary.golden.out.
const planetaryTopologySeed = 777

type planetaryPrep struct {
	cfg   netsim.Config
	plan  *netsim.MemoryPlan
	opts  topology.PlanetaryOptions
	links int
}

// planetaryOptions scales the 1M preset's PoP count to receivers, the
// rule the planetary CLI scenario applies.
func planetaryOptions(receivers int) topology.PlanetaryOptions {
	o := topology.PlanetaryOptions1M()
	o.PoPs = max(1, receivers/(o.Regions*o.ReceiversPerPoP))
	return o
}

func (w *planetary) Generate(seed uint64, _ string) (any, error) {
	return &planetaryIn{topoSeed: planetaryTopologySeed, runSeed: seed, opts: planetaryOptions(w.receivers), packets: w.packets}, nil
}

func (w *planetary) Setup(in any, env *Env) (any, error) {
	return planetarySetup(in.(*planetaryIn), env)
}

func planetarySetup(in *planetaryIn, env *Env) (*planetaryPrep, error) {
	sp := env.Tracer.Begin("topology.gen")
	rng := rand.New(rand.NewPCG(in.topoSeed, in.topoSeed^0x9e3779b97f4a7c15))
	net, firstAccess, err := topology.Planetary(rng, in.opts)
	sp.End()
	if err != nil {
		return nil, err
	}
	links := make([]netsim.LinkSpec, net.NumLinks())
	for j := 0; j < firstAccess; j++ {
		links[j] = netsim.LinkSpec{Kind: netsim.Capacity}
	}
	kinds := protocol.Kinds()
	sess := make([]netsim.SessionConfig, net.NumSessions())
	for i := range sess {
		sess[i] = netsim.SessionConfig{Protocol: kinds[i%len(kinds)], Layers: 8}
	}
	cfg := netsim.Config{
		Network:  net,
		Links:    links,
		Sessions: sess,
		Packets:  in.packets,
		// The CLI runs one replication, whose seed is replication 0's.
		Seed:     netsim.ReplicationSeed(in.runSeed, 0),
		Shards:   defaultShards(),
		CutLinks: topology.PlanetaryCutFrontier(firstAccess, net.NumLinks()),
		Stats:    env.Stats,
	}
	sp = env.Tracer.Begin("netsim.plan")
	plan, err := netsim.PlanMemory(cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &planetaryPrep{cfg: cfg, plan: plan, opts: in.opts, links: net.NumLinks()}, nil
}

// planetaryOut is the run's report plus a digest of its full Result.
type planetaryOut struct {
	report []byte
	digest uint64
	events int64
	rates  [][]float64
}

func (w *planetary) Run(prep any, env *Env) (*Outputs, error) {
	p := prep.(*planetaryPrep)
	sp := env.Tracer.Begin("netsim.run")
	res, err := netsim.Run(p.cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &Outputs{Ops: 1, Value: p.summarize(res)}, nil
}

// summarize renders the result as the planetary CLI does and keeps a
// digest of every per-receiver and per-link field, so the 1M-receiver
// Result itself need not outlive the iteration.
func (p *planetaryPrep) summarize(res *netsim.Result) *planetaryOut {
	var b bytes.Buffer
	o := p.opts
	fmt.Fprintf(&b, "netsim planetary: %d regions x %d PoPs x %d receivers = %d receivers, %d links, %d packets, %d trials\n",
		o.Regions, o.PoPs, o.ReceiversPerPoP, o.NumReceivers(), p.links, p.cfg.Packets, 1)
	fmt.Fprintf(&b, "%s\n", p.plan)
	fmt.Fprintln(&b, "region,protocol,receivers,mean_rate,ci95,best_rate")
	kinds := protocol.Kinds()
	for i, rates := range res.ReceiverRates {
		var mean, best stats.Accumulator
		sum, top := 0.0, 0.0
		for _, v := range rates {
			sum += v
			top = max(top, v)
		}
		mean.Add(sum / float64(len(rates)))
		best.Add(top)
		fmt.Fprintf(&b, "%d,%s,%d,%.6f,%.6f,%.6f\n",
			i, kinds[i%len(kinds)], len(rates), mean.Mean(), mean.CI95(), best.Mean())
	}
	return &planetaryOut{report: b.Bytes(), digest: resultDigest(res), events: res.Events, rates: res.ReceiverRates}
}

// resultDigest hashes every Result field that a shard count must not
// change.
func resultDigest(r *netsim.Result) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for i := range r.ReceiverRates {
		for k := range r.ReceiverRates[i] {
			put(math.Float64bits(r.ReceiverRates[i][k]))
			put(uint64(r.ReceiverPackets[i][k]))
			put(uint64(r.FinalLevels[i][k]))
		}
		put(math.Float64bits(r.MeanLevels[i]))
	}
	for _, ls := range r.Links {
		put(uint64(ls.Link))
		put(uint64(ls.Session))
		put(uint64(ls.Crossed))
		put(uint64(ls.Dropped))
		put(math.Float64bits(ls.Redundancy))
		put(math.Float64bits(ls.FluidRate))
	}
	put(uint64(r.PacketsSent))
	put(math.Float64bits(r.Duration))
	put(uint64(r.Events))
	return h.Sum64()
}

func (w *planetary) Check(in any, out, ref *Outputs) []error {
	o, r := out.Value.(*planetaryOut), ref.Value.(*planetaryOut)
	errs := []error{nil, nil}
	if o.digest != r.digest || !bytes.Equal(o.report, r.report) {
		errs[0] = fmt.Errorf("planetary-1m: run differs from the first run of the same inputs")
	}
	for i, rates := range o.rates {
		for k, v := range rates {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				errs[1] = fmt.Errorf("planetary-1m: receiver %d/%d rate %v", i, k, v)
			}
		}
	}
	if o.events <= 0 && errs[1] == nil {
		errs[1] = errors.New("planetary-1m: no engine events")
	}
	o.rates = nil // the check is done; drop the 1M-entry slices
	return errs
}

// Anchor reproduces cmd/netsim/testdata/planetary.golden.out through
// the workload's own steps: seed 777, a 4096-packet budget.
func (w *planetary) Anchor(env *Env) error {
	want, err := os.ReadFile(filepath.Join(env.Root, "cmd", "netsim", "testdata", "planetary.golden.out"))
	if err != nil {
		return err
	}
	golden := &planetary{packets: 4096, receivers: 1 << 20}
	out, err := runSteps(golden, 777, &Env{Root: env.Root})
	if err != nil {
		return err
	}
	// The CLI ends every scenario's output with a blank line.
	if got := append(out.Value.(*planetaryOut).report, '\n'); !bytes.Equal(got, want) {
		return fmt.Errorf("output differs from planetary.golden.out at byte %d:\n%s", firstDiff(got, want), got)
	}
	return nil
}

func (w *planetary) Layers(in any, last *Outputs, env *Env, span map[string]float64) (map[string]float64, []error) {
	m := map[string]float64{}
	p, err := planetarySetup(in.(*planetaryIn), &Env{})
	if err != nil {
		return m, []error{err}
	}
	m["netsim.shard_groups"] = float64(p.plan.Groups)
	m["netsim.subtrees"] = float64(p.plan.Subtrees)
	m["netsim.plan_bytes"] = float64(p.plan.Total)

	// Construction proxy: the same config at a 1-packet budget.
	one := p.cfg
	one.Packets = 1
	var cons []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := netsim.Run(one); err != nil {
			return m, []error{err}
		}
		cons = append(cons, time.Since(t0).Seconds())
	}
	m["netsim.construct_s"] = median(cons)
	m["netsim.loop_s"] = span["netsim.run"] - m["netsim.construct_s"]

	// Allocation and heap high water of one run, against the plan.
	var res *netsim.Result
	var mallocs, allocBytes uint64
	heap, err := peakHeapDelta(func() error {
		var err error
		mallocs, allocBytes, err = allocDelta(func() error {
			var err error
			res, err = netsim.Run(p.cfg)
			return err
		})
		return err
	})
	if err != nil {
		return m, []error{err}
	}
	m["netsim.allocs_per_event"] = float64(mallocs) / float64(res.Events)
	m["netsim.bytes_per_event"] = float64(allocBytes) / float64(res.Events)
	if heap > 0 {
		m["netsim.plan_over_heap"] = float64(p.plan.Total) / float64(heap)
	}
	res = nil

	// Shard-count invariance and speed-up across every core. The timed
	// runs have one core, so they run at Shards=1; Shards=nproc must
	// give the identical Result (Shards=0 is the sequential engine,
	// whose RNG streams differ).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	var secs [2]float64
	var errs []error
	for i, shards := range []int{1, runtime.NumCPU()} {
		c := p.cfg
		c.Shards = shards
		t0 := time.Now()
		res, err := netsim.Run(c)
		secs[i] = time.Since(t0).Seconds()
		if err != nil {
			return m, []error{err}
		}
		var inv error
		if d := resultDigest(res); d != last.Value.(*planetaryOut).digest {
			inv = fmt.Errorf("planetary-1m: Shards=%d result digest %x differs from the timed run's", shards, d)
		}
		errs = append(errs, inv)
	}
	m["netsim.shard_speedup"] = secs[0] / secs[1]
	return m, errs
}

// firstDiff is the offset of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
