package netsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"testing"

	"mlfair/internal/netmodel"
	"mlfair/internal/protocol"
	"mlfair/internal/routing"
	"mlfair/internal/topology"
)

// resultDigest is an FNV-64a digest of every deterministic Result field:
// receiver rates, packets and levels, mean levels, per-(link, session)
// crossings, drops, rates, redundancy and fluid usage, and the run
// totals. Floats are hashed by their bit patterns, so any drift in the
// last place changes the digest.
func resultDigest(r *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	for i := range r.ReceiverRates {
		put(uint64(len(r.ReceiverRates[i])))
		for k := range r.ReceiverRates[i] {
			putF(r.ReceiverRates[i][k])
			put(uint64(r.ReceiverPackets[i][k]))
			put(uint64(r.FinalLevels[i][k]))
		}
		putF(r.MeanLevels[i])
	}
	for _, ls := range r.Links {
		put(uint64(ls.Link))
		put(uint64(ls.Session))
		put(uint64(ls.Crossed))
		put(uint64(ls.Dropped))
		put(uint64(ls.DownstreamReceivers))
		putF(ls.Rate)
		putF(ls.Redundancy)
		putF(ls.FluidRate)
	}
	put(uint64(r.PacketsSent))
	putF(r.Duration)
	put(uint64(r.Events))
	return h.Sum64()
}

// twoTierCfg is a three-level tree — sender -> 2 core nodes -> 3 hubs
// each -> leaves receivers per hub — whose links cycle through
// Bernoulli, layer-dependent Bernoulli and Capacity at every level, so
// the core, the cut edges (the six hub links, returned as cut) and the
// subtrees below them all carry every instant admission kind.
func twoTierCfg(t *testing.T, leaves int, kind protocol.Kind, packets int, seed uint64) (Config, []int) {
	t.Helper()
	g := netmodel.NewGraph(1 + 2 + 6 + 6*leaves)
	var specs []LinkSpec
	spec := func(i int) LinkSpec {
		switch i % 3 {
		case 0:
			return LinkSpec{Kind: Bernoulli, Loss: 0.01}
		case 1:
			return LinkSpec{Kind: Bernoulli, LayerLoss: []float64{0, 0.005, 0.01, 0.03}}
		}
		return LinkSpec{Kind: Capacity, Capacity: 24}
	}
	var cut []int
	receivers := make([]int, 0, 6*leaves)
	for c := 0; c < 2; c++ {
		g.AddLink(0, 1+c, 1)
		specs = append(specs, spec(c))
	}
	for h := 0; h < 6; h++ {
		cut = append(cut, g.AddLink(1+h/3, 3+h, 1))
		specs = append(specs, spec(h))
	}
	for h := 0; h < 6; h++ {
		for x := 0; x < leaves; x++ {
			nd := 9 + h*leaves + x
			g.AddLink(3+h, nd, 1)
			specs = append(specs, spec(h+x+1))
			receivers = append(receivers, nd)
		}
	}
	sess := []*netmodel.Session{{Sender: 0, Receivers: receivers,
		Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap}}
	net, err := routing.BuildNetwork(g, sess)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Network:  net,
		Links:    specs,
		Sessions: []SessionConfig{{Protocol: kind, Layers: 7}},
		Packets:  packets,
		Seed:     seed,
	}, cut
}

// TestWalkDigests pins the engine's full Result on one config per
// packet-walk path — loss-only and generic trees, every admission kind,
// DropTail continuations, lingering leaves, and the subtree-sharded
// core/fan-out split — across all three protocols. The digests are the
// behaviour contract of the walk: restructuring it must leave every RNG
// draw, crossing and level change where it was.
func TestWalkDigests(t *testing.T) {
	rows := []struct {
		name string
		cfg  func(t *testing.T) Config
		want uint64
	}{
		{"perfect-star", func(t *testing.T) Config {
			return starCfg(t, 12, 0, 0, protocol.Deterministic, 20000, 1)
		}, 0xa79da395c0e0f5b2},
		{"bernoulli-star", func(t *testing.T) Config {
			return starCfg(t, 24, 0.01, 0.03, protocol.Uncoordinated, 40000, 2)
		}, 0x245290a1d55565dd},
		{"layerloss-tree", func(t *testing.T) Config {
			cfg := starOfStarsCfg(t, 8, 30000, 3)
			cfg.Sessions[0].Protocol = protocol.Coordinated
			for j := range cfg.Links {
				if j%2 == 0 {
					cfg.Links[j] = LinkSpec{Kind: Bernoulli, LayerLoss: []float64{0, 0.01, 0.02, 0.05}}
				}
			}
			return cfg
		}, 0xc6ce7e69845ccb38},
		{"capacity-scalefree", func(t *testing.T) Config {
			o := topology.DefaultScaleFreeOptions()
			o.Nodes, o.Sessions = 80, 9
			net, err := topology.ScaleFree(rand.New(rand.NewPCG(5, 5)), o)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Network:  net,
				Links:    make([]LinkSpec, net.NumLinks()),
				Sessions: make([]SessionConfig, net.NumSessions()),
				Packets:  30000,
				Seed:     4,
			}
			for j := range cfg.Links {
				if j%3 != 0 {
					cfg.Links[j] = LinkSpec{Kind: Capacity}
				}
			}
			for i := range cfg.Sessions {
				cfg.Sessions[i] = SessionConfig{Protocol: protocol.Kinds()[i%3], Layers: 6}
			}
			return cfg
		}, 0x1afdd002a1bb593d},
		{"droptail-delay", func(t *testing.T) Config {
			cfg, _, err := Mesh(3, 5, LinkSpec{Kind: DropTail, Capacity: 30, Buffer: 6, Delay: 0.02, Background: 2},
				0.01, SessionConfig{Protocol: protocol.Coordinated, Layers: 7}, 20000, 5)
			if err != nil {
				t.Fatal(err)
			}
			return cfg
		}, 0x350cf9e6d477db59},
		{"linger-bernoulli-churn", func(t *testing.T) Config {
			cfg := starCfg(t, 10, 0.01, 0.04, protocol.Uncoordinated, 30000, 6)
			cfg.LeaveLatency = 0.5
			cfg.Churn = UniformChurn(cfg.Network, 3, 2, 100)
			return cfg
		}, 0xfd100a0db826fa1c},
		{"linger-capacity-churn", func(t *testing.T) Config {
			cfg, _, err := Mesh(3, 4, LinkSpec{Kind: Capacity, Capacity: 40, Background: 3},
				0.02, SessionConfig{Protocol: protocol.Deterministic, Layers: 7}, 30000, 7)
			if err != nil {
				t.Fatal(err)
			}
			cfg.LeaveLatency = 0.25
			cfg.Churn = UniformChurn(cfg.Network, 2, 1.5, 100)
			return cfg
		}, 0x927ddd7cf034a344},
		{"partitioned-shards1", func(t *testing.T) Config {
			cfg, cut := twoTierCfg(t, 7, protocol.Uncoordinated, 30000, 8)
			cfg.Shards, cfg.CutLinks = 1, cut
			return cfg
		}, 0xe8839c812f178ed4},
		{"partitioned-shards3", func(t *testing.T) Config {
			cfg, cut := twoTierCfg(t, 7, protocol.Uncoordinated, 30000, 8)
			cfg.Shards, cfg.CutLinks = 3, cut
			return cfg
		}, 0xe8839c812f178ed4},
		{"partitioned-coordinated-churn", func(t *testing.T) Config {
			cfg, cut := twoTierCfg(t, 7, protocol.Coordinated, 30000, 9)
			cfg.Shards, cfg.CutLinks = 3, cut
			cfg.Churn = UniformChurn(cfg.Network, 4, 3, 200)
			return cfg
		}, 0xa5fc38b01382c2f4},
		{"partitioned-deterministic", func(t *testing.T) Config {
			cfg, cut := twoTierCfg(t, 7, protocol.Deterministic, 30000, 10)
			cfg.Shards, cfg.CutLinks = 2, cut
			return cfg
		}, 0x4ca385d401ddfa41},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg(t)
			if cfg.Shards > 0 && partitionOf(t, cfg) == nil {
				t.Fatal("explicit cut declined: the row does not reach the subtree walk")
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(res); got != row.want {
				t.Errorf("digest %#x, want %#x", got, row.want)
			}
		})
	}
}
