package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"mlfair/internal/maxmin"
	"mlfair/internal/netmodel"
	"mlfair/internal/netsim"
	"mlfair/internal/scenario"
)

// churnFairness is a scenario spec on the default scale-free graph (297
// links, 24 mixed-protocol sessions, 104 receivers) with capacity
// links, uniform churn, slow leaves and the timeseries+convergence
// stages, whose fair-rate timeline is one maxmin epoch per membership
// change. The graph is always the one topology seed 777 gives, so every
// seed does the same maxmin work; the seed drives the engine runs.
type churnFairness struct {
	packets, reps int
	horizon       float64
}

const (
	churnLeaveLatency = 2
	churnTopologySeed = 777
)

func (*churnFairness) Name() string { return "churn-fairness" }

func (w *churnFairness) Generate(seed uint64, _ string) (any, error) {
	spec := &scenario.Spec{
		Topology: scenario.TopologySpec{Kind: "scalefree", Seed: churnTopologySeed},
		Sessions: []scenario.SessionSpec{
			{Protocol: "Coordinated", Layers: 8},
			{Protocol: "Uncoordinated", Layers: 8},
			{Protocol: "Deterministic", Layers: 8},
		},
		DefaultLink:  &scenario.LinkSpec{Kind: "capacity"},
		Packets:      w.packets,
		LeaveLatency: churnLeaveLatency,
		Churn:        &scenario.ChurnSpec{Interval: 0.25, Downtime: 5, Horizon: w.horizon},
		Probe:        &scenario.ProbeSpec{PacketWindow: 2000},
		Replications: scenario.ReplicationSpec{N: w.reps},
		Seed:         seed,
		Metrics:      []string{scenario.MetricTimeseries, scenario.MetricConvergence},
	}
	var b bytes.Buffer
	if err := spec.Encode(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func churnCompile(in []byte, env *Env) (*scenario.Compiled, error) {
	sp := env.Tracer.Begin("scenario.decode")
	spec, err := scenario.Decode(bytes.NewReader(in))
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = env.Tracer.Begin("scenario.compile")
	defer sp.End()
	return scenario.Compile(spec)
}

func (w *churnFairness) Setup(in any, env *Env) (any, error) { return churnCompile(in.([]byte), env) }

func (w *churnFairness) Run(prep any, env *Env) (*Outputs, error) {
	c := prep.(*scenario.Compiled)
	sp := env.Tracer.Begin("scenario.run")
	res, err := scenario.RunCompiledObserved(c, env.Observe())
	sp.End()
	if err != nil {
		return nil, err
	}
	return &Outputs{Ops: c.Spec.Replications.N, Value: res}, nil
}

// churnDigest hashes the fair-rate timeline, the joined time series and
// the convergence report.
func churnDigest(res *scenario.Result) ([]byte, error) {
	var b bytes.Buffer
	if err := res.WriteTimeseriesCSV(&b); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write(b.Bytes())
	for _, ep := range res.Timeline {
		fmt.Fprintf(h, "%v %d %v\n", ep.Time, ep.Rounds, ep.Rates)
	}
	fmt.Fprintf(h, "%+v\n", *res.Convergence)
	return h.Sum(nil), nil
}

// membershipTimes lists the distinct times after 0 at which some
// receiver's membership changes in the fair-rate benchmark: a join at
// its own time, a leave when its slow-leave linger expires, unless the
// receiver rejoins first.
func membershipTimes(churn []netsim.ChurnEvent, latency float64) map[float64]bool {
	times := map[float64]bool{}
	for _, ev := range churn {
		t := ev.Time
		if !ev.Join {
			t += latency
			for _, j := range churn {
				if j.Join && j.Session == ev.Session && j.Receiver == ev.Receiver && j.Time > ev.Time && j.Time <= t {
					t = -1 // voided by the rejoin
					break
				}
			}
		}
		if t > 0 {
			times[t] = true
		}
	}
	return times
}

func (w *churnFairness) Check(in any, out, ref *Outputs) []error {
	res := out.Value.(*scenario.Result)
	c := res.Compiled
	errs := make([]error, 4)
	var err error
	if out.Body, err = churnDigest(res); err != nil {
		errs[0] = err
	} else if !bytes.Equal(out.Body, ref.Body) {
		errs[0] = fmt.Errorf("churn-fairness: outputs differ from the first run of the same inputs")
	}
	if want := 1 + len(membershipTimes(c.Cfg.Churn, c.Spec.LeaveLatency)); len(res.Timeline) != want {
		errs[1] = fmt.Errorf("churn-fairness: %d fair-rate epochs, want %d (one per membership time plus epoch 0)", len(res.Timeline), want)
	}
	for x, ep := range res.Timeline {
		a, err := netmodel.AllocationFromRates(c.Benchmark, ep.Rates)
		if err == nil {
			err = a.Feasible()
		}
		if err != nil {
			errs[2] = fmt.Errorf("churn-fairness: epoch %d at t=%v: %w", x, ep.Time, err)
			break
		}
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	ts, cv := res.TimeSeries, res.Convergence
	ok := ts != nil && cv != nil && finite(cv.TimeToFair.Mean) && finite(cv.FracTimeFair.Mean) && finite(cv.Oscillation.Mean)
	for _, ep := range res.Timeline {
		for _, rs := range ep.Rates {
			for _, v := range rs {
				ok = ok && finite(v)
			}
		}
	}
	if ts != nil {
		for _, grid := range [][][][]float64{ts.Rate, ts.Level, ts.Fair, ts.Gap} {
			for _, sess := range grid {
				for _, recv := range sess {
					for _, v := range recv {
						ok = ok && finite(v)
					}
				}
			}
		}
	}
	if !ok {
		errs[3] = fmt.Errorf("churn-fairness: a timeline, time-series or convergence value is missing or not finite")
	}
	return errs
}

func (w *churnFairness) Layers(in any, last *Outputs, env *Env, span map[string]float64) (map[string]float64, []error) {
	m := map[string]float64{}
	c, err := churnCompile(in.([]byte), &Env{})
	if err != nil {
		return m, []error{err}
	}
	var tl []float64
	var epochs []maxmin.TimelineEpoch
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if epochs, err = scenario.FairTimeline(c); err != nil {
			return m, []error{err}
		}
		tl = append(tl, time.Since(t0).Seconds())
	}
	rounds := 0
	for _, ep := range epochs {
		rounds += ep.Rounds
	}
	m["maxmin.timeline_s"] = median(tl)
	m["maxmin.epochs"] = float64(len(epochs))
	m["maxmin.rounds"] = float64(rounds)
	m["maxmin.epoch_us"] = median(tl) / float64(len(epochs)) * 1e6

	// The replications alone, with a no-op fold.
	var events int64
	t0 := time.Now()
	mallocs, allocBytes, err := allocDelta(func() error {
		return netsim.StreamReplications(c.Cfg, c.Spec.Replications.N, c.Spec.Replications.Workers,
			func(_ int, r *netsim.Result) error { events += r.Events; return nil })
	})
	run := time.Since(t0).Seconds()
	if err != nil {
		return m, []error{err}
	}
	m["netsim.run_s"] = run
	m["netsim.allocs_per_event"] = float64(mallocs) / float64(events)
	m["netsim.bytes_per_event"] = float64(allocBytes) / float64(events)
	m["scenario.fold_s"] = span["scenario.run"] - m["maxmin.timeline_s"] - run

	one := c.Cfg
	one.Packets = 1
	t0 = time.Now()
	err = netsim.StreamReplications(one, c.Spec.Replications.N, c.Spec.Replications.Workers,
		func(int, *netsim.Result) error { return nil })
	if err != nil {
		return m, []error{err}
	}
	m["netsim.construct_s"] = time.Since(t0).Seconds()
	m["netsim.loop_s"] = run - m["netsim.construct_s"]
	return m, nil
}
